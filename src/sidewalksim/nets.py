"""Small fully-connected student network with hand-written backpropagation.

The architecture is fixed (275 -> 256 -> 128 -> 2, rectifier hidden units,
tanh output), so the gradients are spelled out directly instead of pulling in
an autodiff framework. Sub-gradients at the rectifier and L1 kinks are zero.

The parameters are float32, and every pass runs in the parameters' dtype:
inputs are cast to it on entry, and the optimizer's moments follow it. A
float64 copy of the parameters therefore runs the same code in float64. An
Adam step on float32 parameters runs in C (adam_step in _nets.c) when the
kernels load, else in numpy, with the same result bit for bit; on float64
parameters it always runs in numpy.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import _ckernel
from .errors import TrainingDivergedError

ARCH = (275, 256, 128, 2)

LEARNING_RATE = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class StudentNet:
    """275-input, 2-output MLP; outputs live in (-1, 1) via tanh."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.params = []
        for fan_in, fan_out in zip(ARCH[:-1], ARCH[1:]):
            self.params.append(_glorot(rng, fan_in, fan_out).astype(np.float32))
            self.params.append(np.zeros(fan_out, dtype=np.float32))

    # parameters are ordered W1, b1, W2, b2, W3, b3

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Network output for a (B, 275) batch or a single (275,) vector."""
        x = np.asarray(x, dtype=self.params[0].dtype)
        out = self._forward_cache(np.atleast_2d(x))[-1]
        return out[0] if x.ndim == 1 else out

    def _forward_cache(self, x: np.ndarray):
        w1, b1, w2, b2, w3, b3 = self.params
        z1 = x @ w1
        z1 += b1
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ w2
        z2 += b2
        a2 = np.maximum(z2, 0.0)
        y = a2 @ w3
        y += b3
        np.tanh(y, out=y)
        return z1, a1, z2, a2, y

    def loss(self, x: np.ndarray, target: np.ndarray) -> float:
        """Mean absolute error over batch and output components."""
        return float(np.mean(np.abs(self.forward(np.atleast_2d(x)) - target)))

    def loss_and_grads(self, x: np.ndarray, target: np.ndarray):
        """L1 loss and its exact gradients for every parameter."""
        dtype = self.params[0].dtype
        x = np.atleast_2d(np.asarray(x, dtype=dtype))
        target = np.atleast_2d(np.asarray(target, dtype=dtype))
        w1, b1, w2, b2, w3, b3 = self.params
        z1, a1, z2, a2, y = self._forward_cache(x)
        resid = y - target
        loss = float(np.mean(np.abs(resid)))

        d_y = np.sign(resid) / resid.size          # zero sub-gradient at the kink
        d_z3 = d_y * (1.0 - y * y)
        g_w3 = a2.T @ d_z3
        g_b3 = d_z3.sum(axis=0)
        d_z2 = d_z3 @ w3.T
        d_z2 *= z2 > 0.0
        g_w2 = a1.T @ d_z2
        g_b2 = d_z2.sum(axis=0)
        d_z1 = d_z2 @ w2.T
        d_z1 *= z1 > 0.0
        g_w1 = x.T @ d_z1
        g_b1 = d_z1.sum(axis=0)
        return loss, [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3]

    # flat parameter views, used by the finite-difference checks and model IO

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params])

    def set_flat(self, flat: np.ndarray) -> None:
        i = 0
        for p in self.params:
            p[...] = flat[i:i + p.size].reshape(p.shape)
            i += p.size
        if i != flat.size:
            raise ValueError("flat parameter vector has the wrong length")

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params)


class Adam:
    """Per-parameter adaptive steps with (0.9, 0.999) moment decay."""

    def __init__(self, net: StudentNet):
        self.lr = LEARNING_RATE
        self.t = 0
        self.m = [np.zeros_like(p) for p in net.params]
        self.v = [np.zeros_like(p) for p in net.params]

    def step(self, net: StudentNet, grads) -> None:
        """Update every parameter array in turn; raises TrainingDivergedError
        at the first gradient holding a NaN or an inf, with that array and
        the ones after it untouched."""
        self.t += 1
        # Python floats, which numpy and the kernel each round to the
        # parameters' dtype once
        scalars = (ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2, self.lr,
                   1.0 - ADAM_BETA1 ** self.t, 1.0 - ADAM_BETA2 ** self.t, ADAM_EPS)
        kernels = _ckernel.load() if net.params[0].dtype == np.float32 else None
        update = _adam_numpy if kernels is None else kernels.adam_step
        for p, g, m, v in zip(net.params, grads, self.m, self.v):
            if not update(p, g, m, v, *scalars):
                raise TrainingDivergedError("non-finite gradient")


def _adam_numpy(p, g, m, v, beta1, one_minus_beta1, beta2, one_minus_beta2, lr, b1c, b2c,
                eps) -> bool:
    """One Adam step of the parameter array p, in place with its moments m
    and v; False, with nothing written, when g holds a NaN or an inf. The
    pure-Python path of the adam_step kernel."""
    if not np.isfinite(g).all():
        return False
    m *= beta1
    m += one_minus_beta1 * g
    # the moment of a unit that gets no more gradient decays into
    # subnormals, which are slow on x86; zero moves its weight by at
    # most lr * tiny / eps less than a subnormal would. A multiply by
    # the mask, as a store through it is ten times slower on the
    # interleaved zeros of rectifier gradients
    m *= np.abs(m) >= np.finfo(m.dtype).tiny
    v *= beta2
    v += one_minus_beta2 * g * g
    p -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)
    return True


def save_model(net: StudentNet, norm: dict, path) -> None:
    """Write the versioned model JSON: architecture, flat weights, normalization."""
    doc = {
        "version": 1,
        "arch": list(ARCH),
        "weights": [float(w) for w in net.get_flat()],
        "norm": norm,
    }
    with open(path, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")


def load_model(path) -> tuple[StudentNet, dict]:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"model file holds a JSON {type(doc).__name__}, not an object")
    if doc.get("version") != 1:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    arch = doc.get("arch")
    if arch != list(ARCH):
        raise ValueError(f"model architecture {arch!r} is not the student's {list(ARCH)}")
    missing = [key for key in ("weights", "norm") if key not in doc]
    if missing:
        raise ValueError(f"model file lacks {' and '.join(missing)}")
    weights = doc["weights"]
    # JSON true and false load as bools, which are ints to isinstance
    if not (isinstance(weights, list) and all(
            isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights)):
        raise ValueError("model file weights are not a list of numbers")
    # each weight rounds once to the float32 parameter the net stores; one
    # beyond float32's range becomes infinite, and an integer beyond any
    # float's range cannot convert at all
    not_finite = "model file weights hold a value that is not a finite float32"
    try:
        with np.errstate(over="ignore"):
            flat = np.array(weights, dtype=np.float32)
    except OverflowError:
        raise ValueError(not_finite) from None
    if not np.isfinite(flat).all():
        raise ValueError(not_finite)
    net = StudentNet(seed=0)
    net.set_flat(flat)
    return net, doc["norm"]
