"""Golden values of the counter-based streams: they must not change across runs or releases."""

import numpy as np

from irunet import rng


class TestGoldenStreams:
    def test_raw_uint64(self):
        # seed 0 gives the first outputs of the SplitMix64 reference generator
        assert rng.raw_uint64(0, 0, 3).tolist() == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        # seeds wrap mod 2^64, so the state sum overflows at once
        assert rng.raw_uint64(2**64 - 1, 5, 3).tolist() == [
            0xD31DADBDA438BB33, 0xF14F2CF802083FA5, 0x405DA438A39E8064]
        assert rng.raw_uint64(-7, 2**40, 2).tolist() == [0x41B24FFB1C494A9E, 0xFAF8DF0D52AC4F0B]

    def test_uniform(self):
        expected = ["0x1.7bae644c5fd6dp-1", "0x1.477f199d93378p-3", "0x1.1d499d5c4c3e6p-2",
                    "0x1.607387fc392b8p-2"]
        assert [float(v).hex() for v in rng.uniform(42, 4)] == expected
        assert [float(v).hex() for v in rng.uniform(42, 2, start=3)] == [
            "0x1.607387fc392b8p-2", "0x1.378b0b4489040p-5"]

    def test_gaussian(self):
        # log, cos and sin may differ in the last bit between math libraries
        expected = [float.fromhex(v) for v in (
            "0x1.f4567108dd6d9p-9", "-0x1.bfa2347ee5789p-1", "0x1.69f9f9055b111p-2",
            "-0x1.9715d168644c4p+0", "0x1.3aba670e0f040p+0")]
        np.testing.assert_allclose(rng.gaussian(9, 5), expected, rtol=1e-14, atol=0)

    def test_hash64(self):
        assert rng.hash64(1, "head", b"\x00\xff") == 0xD059D43295468EFB
        assert rng.hash64() == 0xC3817C016BA4FF30
        assert rng.hash64(-1) == 0xAB153434AC549776
        assert rng.hash64("") == 0x8E7D816CAA4B55A6

    def test_permutation(self):
        assert rng.permutation(123, 10).tolist() == [7, 3, 4, 9, 8, 2, 1, 0, 6, 5]
        assert rng.permutation(5, 1).tolist() == [0]
