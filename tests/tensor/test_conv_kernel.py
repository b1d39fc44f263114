"""The conv2d kernel contract: bits, dtypes and memory layouts.

``conv2d`` computes each pass as one GEMM over im2col patches.  This file
keeps the ``np.einsum`` formulation the kernel was first written in as a
reference and pins the production kernel to it, per case:

* forward output, ``gx``, ``gw`` and ``gb`` are bitwise equal, with equal
  dtypes and equal strides on every non-unit axis (downstream float32
  reductions follow memory order, so the layout is part of the result);
* a ``CompiledStep`` capture and two replays give the same outputs and
  leaf gradients;
* a Reslim eager forward at the whole-request serving shape and one
  ``Trainer.train_step`` at the default training shape are unchanged
  when ``conv2d`` is swapped for the reference;
* the kernel never calls ``np.einsum`` or ``np.pad``.

No digest is recorded, so the checks hold on any BLAS build.
"""

import itertools

import numpy as np
import pytest

import repro.nn.layers as layers
from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.tensor import CompiledStep, Tensor, conv2d, im2col, no_grad
from repro.train import TrainConfig, Trainer


# --------------------------------------------------------------------- #
# reference: the einsum formulation
# --------------------------------------------------------------------- #
def _ref_im2col(data, k, stride, pad):
    n, c, h, w = data.shape
    if pad:
        data = np.pad(data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    s0, s1, s2, s3 = data.strides
    windows = np.lib.stride_tricks.as_strided(
        data, shape=(n, c, out_h, out_w, k, k),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3), writeable=False)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * k * k, out_h * out_w)
    return np.ascontiguousarray(cols)


def _ref_col2im(cols, in_shape, k, stride, pad):
    n, c, h, w = in_shape
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
    cols6 = cols.reshape(n, c, k, k, out_h, out_w)
    for ky in range(k):
        for kx in range(k):
            padded[:, :, ky:ky + stride * out_h:stride,
                   kx:kx + stride * out_w:stride] += cols6[:, :, ky, kx]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def ref_conv2d(x, weight, bias, stride=1, pad=0):
    a, wgt = x, weight
    n, in_c, h, w = a.shape
    out_c, _, k, _ = wgt.shape
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (w + 2 * pad - k) // stride + 1
    cols = _ref_im2col(a.data, k, stride, pad)
    cols_live = np.shares_memory(cols, a.data)
    if not cols_live and not cols.flags.writeable:
        cols = cols.copy()
    w2 = wgt.data.reshape(out_c, in_c * k * k)
    out = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
    out = out.reshape(n, out_c, out_h, out_w).astype(np.float32)
    if bias is not None:
        out = out + bias.data.reshape(1, out_c, 1, 1)
    parents = (a, wgt) if bias is None else (a, wgt, bias)

    def backward(g):
        g2 = g.reshape(n, out_c, out_h * out_w)
        gw = np.einsum("nol,nkl->ok", g2, cols, optimize=True).reshape(wgt.shape)
        gcols = np.einsum("ok,nol->nkl", w2, g2, optimize=True)
        gx = _ref_col2im(gcols, a.shape, k, stride, pad)
        grads = [(a, gx), (wgt, gw.astype(np.float32))]
        if bias is not None:
            grads.append((bias, g.sum(axis=(0, 2, 3))))
        return tuple(grads)

    def replay():
        if not cols_live:
            np.copyto(cols, _ref_im2col(a.data, k, stride, pad))
        fresh = np.einsum("ok,nkl->nol", w2, cols, optimize=True)
        fresh = fresh.reshape(n, out_c, out_h, out_w)
        if bias is not None:
            np.add(fresh, bias.data.reshape(1, out_c, 1, 1), out=out)
        else:
            np.copyto(out, fresh)

    return Tensor._from_op(out, parents, backward, "conv2d", replay=replay)


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def _assert_same(got, want, what):
    """Bitwise equal, same dtype, same strides on every non-unit axis."""
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{what}: bits differ"
    for axis, size in enumerate(got.shape):
        if size > 1:
            assert got.strides[axis] == want.strides[axis], (
                f"{what}: strides {got.strides} != {want.strides}")


def _channels_last(a):
    """Same values as ``a``, laid out in (N, H, W, C) memory order."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


CASES = [
    pytest.param(n, k, stride, pad, bias,
                 id=f"n{n}-k{k}-s{stride}-p{pad}-{'bias' if bias else 'nobias'}")
    for n, k, stride, pad, bias in itertools.product(
        (1, 2, 4), (1, 3), (1, 2), (0, 1), (True, False))
]
_IN_C, _OUT_C, _H, _W = 5, 7, 9, 12


def _operands(seed, n, k, bias):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, _IN_C, _H, _W)).astype(np.float32)
    w = (0.3 * rng.standard_normal((_OUT_C, _IN_C, k, k))).astype(np.float32)
    b = rng.standard_normal(_OUT_C).astype(np.float32) if bias else None
    return rng, x, w, b


def _eager(conv, x, w, b, stride, pad, g):
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    bt = None if b is None else Tensor(b.copy(), requires_grad=True)
    out = conv(xt, wt, bt, stride=stride, pad=pad)
    grads = out._backward(g)
    return out.data, [gr for _, gr in grads]


# --------------------------------------------------------------------- #
# per-op contract
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n,k,stride,pad,bias", CASES)
def test_eager_forward_and_gradients_match_reference(n, k, stride, pad, bias):
    rng, x, w, b = _operands(100 + n * 8 + k * 4 + stride * 2 + pad, n, k, bias)
    probe = conv2d(Tensor(x), Tensor(w), None if b is None else Tensor(b),
                   stride=stride, pad=pad)
    g = rng.standard_normal(probe.shape).astype(np.float32)
    for layout, g_in in (("C", g), ("NHWC", _channels_last(g))):
        out, grads = _eager(conv2d, x, w, b, stride, pad, g_in)
        ref_out, ref_grads = _eager(ref_conv2d, x, w, b, stride, pad, g_in)
        _assert_same(out, ref_out, "forward")
        assert len(grads) == len(ref_grads)
        for name, got, want in zip(("gx", "gw", "gb"), grads, ref_grads):
            _assert_same(got, want, f"{name} (g in {layout} order)")


def test_float64_input_matches_reference():
    _, x, w, b = _operands(7, 2, 3, True)
    x64 = x.astype(np.float64) * (1.0 + 1e-9)
    results = []
    for conv in (conv2d, ref_conv2d):
        # a Tensor casts to float32; assigning .data keeps float64 patches,
        # which exercises the mixed-precision GEMM and the float32 casts
        xt = Tensor(np.zeros_like(x), requires_grad=True)
        xt.data = x64
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(b.copy(), requires_grad=True)
        out = conv(xt, wt, bt, stride=1, pad=1)
        g = np.random.default_rng(8).standard_normal(out.shape).astype(np.float32)
        results.append((out.data, [gr for _, gr in out._backward(g)]))
    (out, grads), (ref_out, ref_grads) = results
    _assert_same(out, ref_out, "forward")
    for name, got, want in zip(("gx", "gw", "gb"), grads, ref_grads):
        _assert_same(got, want, name)


@pytest.mark.parametrize("n,k,stride,pad,bias", CASES)
def test_compiled_capture_and_replays_match_reference(n, k, stride, pad, bias):
    rng, x0, w, b = _operands(500 + n * 8 + k * 4 + stride * 2 + pad, n, k, bias)
    x1 = (x0 * (1.0 + 0.5 * rng.random(x0.shape))).astype(np.float32)
    probe = conv2d(Tensor(x0), Tensor(w), None, stride=stride, pad=pad)
    weight = rng.standard_normal(probe.shape).astype(np.float32)

    def run(conv):
        wt = Tensor(w.copy(), requires_grad=True)
        bt = None if b is None else Tensor(b.copy(), requires_grad=True)
        leaves = [wt] if bt is None else [wt, bt]

        def fn(xt):
            out = conv(xt, wt, bt, stride=stride, pad=pad)
            return (out * Tensor(weight)).sum(), out

        step = CompiledStep(fn)
        phases = []
        for x in (x0, x1, x0):  # capture, replay, replay
            for t in leaves:
                t.grad = None
            loss, out = step(x)
            phases.append((loss.copy(), out.copy(),
                           [t.grad.copy() for t in leaves]))
        step.release()
        return phases

    for i, (got, want) in enumerate(zip(run(conv2d), run(ref_conv2d))):
        _assert_same(got[0], want[0], f"phase {i} loss")
        _assert_same(got[1], want[1], f"phase {i} output")
        for j, (gg, wg) in enumerate(zip(got[2], want[2])):
            _assert_same(gg, wg, f"phase {i} leaf grad {j}")


def test_kernel_calls_neither_einsum_nor_pad(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("conv2d must call its GEMMs directly")

    monkeypatch.setattr(np, "einsum", banned)
    monkeypatch.setattr(np, "pad", banned)
    _, x, w, b = _operands(9, 2, 3, True)
    assert im2col(x, 3, 1, 1).shape == (2, _IN_C * 9, _H * _W)
    _, grads = _eager(conv2d, x, w, b, 1, 1, np.ones((2, _OUT_C, _H, _W), np.float32))
    assert len(grads) == 3
    wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
    step = CompiledStep(lambda xt: (conv2d(xt, wt, bt, pad=1).sum(),))
    for _ in range(2):  # capture, replay
        step(x)
    step.release()


# --------------------------------------------------------------------- #
# whole-model contract
# --------------------------------------------------------------------- #
def test_reslim_serving_forward_matches_reference(monkeypatch):
    config = ModelConfig("serve", embed_dim=16, depth=1, num_heads=2)
    x = np.random.default_rng(3).standard_normal((1, 23, 16, 32)).astype(np.float32)

    def forward():
        model = Reslim(config, 23, 3, factor=4, max_tokens=256,
                       rng=np.random.default_rng(11))
        model.eval()
        with no_grad():
            return model(Tensor(x)).data

    got = forward()
    monkeypatch.setattr(layers, "conv2d", ref_conv2d)
    want = forward()
    _assert_same(got, want, "Reslim forward")


def test_train_step_matches_reference(monkeypatch):
    spec = DatasetSpec(name="conv_kernel", fine_grid=Grid(32, 64), factor=4,
                       years=(2000,), samples_per_year=4, seed=5,
                       output_channels=(17, 18, 19))
    dataset = DownscalingDataset(spec, years=(2000,))
    dataset.fit_normalizer()
    batch = next(dataset.batches(4, shuffle=True, rng=np.random.default_rng(6)))
    config = ModelConfig("train", embed_dim=32, depth=2, num_heads=4)

    def step():
        model = Reslim(config, in_channels=23, out_channels=3, factor=4,
                       max_tokens=4096, rng=np.random.default_rng(12))
        trainer = Trainer(model, dataset, TrainConfig(
            epochs=1, batch_size=4, lr=4e-3, seed=0))
        loss = trainer.train_step(batch)
        return loss, trainer.history.grad_norms[-1], model.parameters()

    loss, norm, params = step()
    monkeypatch.setattr(layers, "conv2d", ref_conv2d)
    ref_loss, ref_norm, ref_params = step()
    assert loss == ref_loss and norm == ref_norm
    assert len(params) == len(ref_params)
    for i, (p, q) in enumerate(zip(params, ref_params)):
        _assert_same(p.grad, q.grad, f"parameter {i} grad")
        _assert_same(p.data, q.data, f"parameter {i} after the step")
