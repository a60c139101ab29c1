"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array (float32 by default, float64 for gradient
checking) and records the operation graph as it is built: each op output
keeps references to its parents plus a closure that routes the incoming
gradient back to them. Tensor() makes its array contiguous. When
concat_channels records a graph, each part that is an op output becomes a
view of its channel slice of the concat output, so the graph stores that
activation once; leaf parts (parameters, inputs) and no_grad concats keep
their arrays. Calling backward() on a scalar walks that recorded graph once
in reverse topological order, accumulates gradients into the leaves' `.grad`
and frees each interior node as soon as its backward has run, so a second
backward() through it raises RuntimeError.
Ops marked @observed report each call to the callback observe_ops() installs.

Shape discipline is strict: the binary ops (+, -, *) take Tensor operands
only, of exactly the same shape and dtype; there is no broadcasting, not
even of a Python scalar. Image data uses the batch x channels x height x
width layout throughout.
"""

from __future__ import annotations

import functools
from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

_grad_enabled: ContextVar[bool] = ContextVar("grad_enabled", default=True)
_observer: ContextVar[Callable | None] = ContextVar("observer", default=None)


@contextmanager
def _setting(var: ContextVar, value) -> Iterator[None]:
    """Set `var` to `value` inside the block, in the calling thread's context only; blocks nest."""
    token = var.set(value)
    try:
        yield
    finally:
        var.reset(token)


def no_grad() -> AbstractContextManager[None]:
    """Disable graph recording inside the block (inference / data prep), in the calling thread."""
    return _setting(_grad_enabled, False)


def observe_ops(observer: Callable) -> AbstractContextManager[None]:
    """Inside the block, each call of an @observed op becomes `observer(op, fn, args)`.

    The observer must return fn(*args); it may also read the arguments, time
    the call or run fn on other arguments. Like no_grad(), the block holds for
    the calling thread only.
    """
    return _setting(_observer, observer)


def records_graph(inputs: Iterable["Tensor"]) -> bool:
    """Whether an op on `inputs` records a graph: grad is enabled and some input requires grad."""
    return _grad_enabled.get() and any(t.requires_grad for t in inputs)


def observed(op: str) -> Callable:
    """Decorate `fn` so an installed observer sees its calls as `op`; else one lookup."""
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def call(*args):
            observer = _observer.get()
            return fn(*args) if observer is None else observer(op, fn, args)
        return call
    return decorate


def _walked(g: np.ndarray) -> None:
    """The backward closure of a node whose backward has already run."""
    raise RuntimeError("backward() through a graph that backward() already walked; "
                       "run the forward pass again")


class Tensor:
    """N-dimensional value node of the autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            if np.dtype(dtype) not in (np.float32, np.float64):
                raise ValueError(f"tensors are float32 or float64, got {np.dtype(dtype)}")
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
            # float arrays keep their precision (the 64-bit gradient-check mode)
            arr = data
        else:
            arr = np.asarray(data, dtype=DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # ------------------------------------------------------------------ basics

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g into .grad; the first g is stored as a copy unless `owned`.

        The backward passes keep one rule for gradient arrays. An array goes
        owned to at most one tensor: `owned` says nothing else holds g (a
        fresh array the op allocated, or the g its own backward was handed and
        passes on once), so .grad may adopt it. Anything else is copied: a
        view (the channel slices of concat_channels), or a g the op also hands
        to another parent (the second addend of __add__). So each `.grad` is
        its node's own array, and a backward may write into the g it is
        handed. A backward that finds its input's `.grad` already set may add
        into it directly instead of calling this.
        """
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------ graph construction

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Wrap an op result, attaching the backward closure when recording."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._parents = ()
        out._backward = None
        out.requires_grad = records_graph(parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _binary_operand(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            raise TypeError(f"Tensor ops take Tensor operands, got {type(other).__name__}")
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if other.dtype != self.dtype:
            raise ValueError(f"dtype mismatch: {self.dtype} vs {other.dtype}")
        return other

    # ------------------------------------------------------------- elementwise

    def __add__(self, other):
        o = self._binary_operand(other)

        def backward(g: np.ndarray) -> None:
            # g goes owned to the first addend; x + x must still copy it once
            if self.requires_grad:
                self.accumulate_grad(g, owned=o is not self)
            if o.requires_grad:
                o.accumulate_grad(g)
        return Tensor._make(self.data + o.data, (self, o), backward)

    def __sub__(self, other):
        o = self._binary_operand(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(g, owned=True)
            if o.requires_grad:
                o.accumulate_grad(-g, owned=True)
        return Tensor._make(self.data - o.data, (self, o), backward)

    def __mul__(self, other):
        o = self._binary_operand(other)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(g * o.data, owned=True)
            if o.requires_grad:
                o.accumulate_grad(g * self.data, owned=True)
        return Tensor._make(self.data * o.data, (self, o), backward)

    @observed("relu")
    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(g * (self.data > 0), owned=True)
        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # two-branch form keeps exp() in the underflow-safe direction
        e = np.exp(-np.abs(self.data))
        out_data = np.where(self.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(self.dtype)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                # g * out * (1 - out) in place; a fresh product, allocated above
                # two freed temporaries, raised a batch-8 64x64 train run's
                # peak RSS by 1 MB (2-core Xeon, glibc malloc)
                g *= out_data
                g *= 1.0 - out_data
                self.accumulate_grad(g, owned=True)
        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        # subgradient at 0 is 0 (np.sign(0) == 0)
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(g * np.sign(self.data), owned=True)
        return Tensor._make(np.abs(self.data), (self,), backward)

    # -------------------------------------------------------------- reductions

    def _check_nonempty(self) -> None:
        if self.size == 0:
            raise ValueError("reduction over an empty tensor")

    def sum(self) -> "Tensor":
        self._check_nonempty()

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.full_like(self.data, g.reshape(())), owned=True)
        return Tensor._make(np.asarray(self.data.sum(), dtype=self.dtype), (self,), backward)

    def mean(self) -> "Tensor":
        self._check_nonempty()
        n = self.size

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(np.full_like(self.data, g.reshape(()) / n), owned=True)
        return Tensor._make(np.asarray(self.data.mean(), dtype=self.dtype), (self,), backward)

    # ---------------------------------------------------------------- backward

    @observed("backward")
    def backward(self) -> None:
        """Reverse-mode sweep from this scalar through the recorded graph.

        Every reachable leaf that requires grad ends up with its gradient in
        `.grad` (same shape as its data); unreached tensors keep grad None,
        which callers treat as zero. The sweep consumes the graph: once an
        interior node's (an op output's) backward has run, its `.grad`,
        closure and parent links are dropped, so each activation and its
        gradient are freed as soon as the rest of the sweep no longer needs
        them. A later backward() that reaches such a node raises
        RuntimeError before any gradient moves.
        """
        if self.size != 1:
            raise ValueError(f"backward() root must be scalar, got shape {self.shape}")

        # iterative topological order; recursion would overflow on long chains
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _walked:
                _walked(node.grad)  # raises before any gradient moves
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self.accumulate_grad(np.ones_like(self.data), owned=True)
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _walked, ()


@observed("concat_channels")
def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate 4-D tensors along the channel axis.

    All parts must agree on batch, height and width; the backward pass
    splits the gradient back by channel ranges. When the call records a
    graph, each part that is an op output is rebound to its channel slice of
    the output, so its own array is freed unless something else holds it.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("concat_channels needs at least one part")
    first = parts[0]
    for p in parts:
        if p.ndim != 4:
            raise ValueError(f"concat_channels expects 4-D tensors, got shape {p.shape}")
        if (p.shape[0], p.shape[2], p.shape[3]) != (first.shape[0], first.shape[2], first.shape[3]):
            raise ValueError(
                f"spatial mismatch in concat_channels: {first.shape} vs {p.shape}")
        if p.dtype != first.dtype:
            raise ValueError(f"dtype mismatch in concat_channels: {first.dtype} vs {p.dtype}")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def backward(g: np.ndarray) -> None:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate_grad(g[:, lo:hi])
    out = Tensor._make(np.concatenate([p.data for p in parts], axis=1), parts, backward)
    if out.requires_grad:
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p._backward is not None:
                p.data = out.data[:, lo:hi]
    return out
