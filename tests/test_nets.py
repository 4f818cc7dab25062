import numpy as np
import pytest

from sidewalksim import _ckernel
from sidewalksim.errors import TrainingDivergedError
from sidewalksim.nets import ARCH, LEARNING_RATE, Adam, StudentNet, load_model, save_model

from tests.conftest import needs_c_compiler


def finite_difference_grad(net, x, y, coords, h=1e-5):
    """Central-difference oracle for selected flat parameter coordinates."""
    flat = net.get_flat()
    grads = {}
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        net.set_flat(flat)
        up = net.loss(x, y)
        flat[i] = orig - h
        net.set_flat(flat)
        down = net.loss(x, y)
        flat[i] = orig
        grads[i] = (up - down) / (2.0 * h)
    net.set_flat(flat)
    return grads


def kink_margins(net, x, target) -> float:
    """Smallest distance of any pre-activation or residual to its kink."""
    x = np.atleast_2d(x)
    z1, _, z2, _, y = net._forward_cache(x)
    resid = y - np.atleast_2d(target)
    return float(min(np.abs(z1).min(), np.abs(z2).min(), np.abs(resid).min()))


def activation_signature(net, x, target):
    """Sign pattern of both rectifier layers and the L1 residual."""
    x = np.atleast_2d(x)
    z1, _, z2, _, y = net._forward_cache(x)
    resid = y - np.atleast_2d(target)
    return (z1 > 0.0, z2 > 0.0, np.sign(resid))


def signatures_match(net, x, y, i, h):
    """True when both perturbed points keep every kink on the same side."""
    flat = net.get_flat()
    orig = flat[i]
    sigs = []
    margins = []
    for delta in (h, -h):
        flat[i] = orig + delta
        net.set_flat(flat)
        sigs.append(activation_signature(net, x, y))
        margins.append(kink_margins(net, x, y))
    flat[i] = orig
    net.set_flat(flat)
    a, b = sigs
    same = all(np.array_equal(u, v) for u, v in zip(a, b))
    return same and min(margins) > 1e-6


def random_batch(rng, n=12):
    x = rng.uniform(-1.0, 1.0, size=(n, ARCH[0]))
    y = rng.uniform(-0.9, 0.9, size=(n, ARCH[-1]))
    return x, y


def test_architecture_shape():
    net = StudentNet(seed=0)
    assert [p.shape for p in net.params] == [
        (275, 256), (256,), (256, 128), (128,), (128, 2), (2,)]
    assert net.n_params == 275 * 256 + 256 + 256 * 128 + 128 + 128 * 2 + 2


def test_output_always_in_tanh_bounds(rng=np.random.default_rng(0)):
    net = StudentNet(seed=1)
    x = rng.uniform(-100, 100, size=(64, 275))
    out = net.forward(x)
    # tanh saturates to exactly +-1.0 for huge activations
    assert np.all(np.abs(out) <= 1.0)
    assert np.isfinite(out).all()


def float64_net(seed):
    """A net whose parameters are the float32 ones widened to float64, so
    that central differences at h = 1e-5 resolve the loss."""
    net = StudentNet(seed=seed)
    net.params = [p.astype(np.float64) for p in net.params]
    return net


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = float64_net(3)
    x, y = random_batch(rng)
    _, grads = net.loss_and_grads(x, y)
    flat_grad = np.concatenate([g.ravel() for g in grads])
    coords = rng.choice(net.n_params, size=250, replace=False)
    fd = finite_difference_grad(net, x, y, coords)
    checked = 0
    for i, g_fd in fd.items():
        if not signatures_match(net, x, y, i, 1e-5):
            continue  # kink-adjacent coordinate
        g_an = flat_grad[i]
        if abs(g_an) < 1e-8 and abs(g_fd) < 1e-8:
            checked += 1
            continue
        rel = abs(g_an - g_fd) / max(abs(g_an), abs(g_fd))
        assert rel < 1e-4, f"coord {i}: analytic {g_an} vs fd {g_fd}"
        checked += 1
    assert checked > 150  # margin test may drop only a few coordinates


def test_float32_gradients_stay_near_the_float64_ones():
    # same float32-rounded weights and the same float32 batch of 256 rows in
    # both dtypes; 4.6e-7 is the worst seen over these ten batches
    rng = np.random.default_rng(0)
    for seed in range(10):
        net32, net64 = StudentNet(seed=seed), float64_net(seed)
        x = rng.uniform(-1.0, 1.0, size=(256, ARCH[0])).astype(np.float32)
        y = rng.uniform(-0.9, 0.9, size=(256, ARCH[-1])).astype(np.float32)
        _, g32 = net32.loss_and_grads(x, y)
        _, g64 = net64.loss_and_grads(x, y)
        assert {g.dtype for g in g32} == {np.dtype(np.float32)}
        assert {g.dtype for g in g64} == {np.dtype(np.float64)}
        g32 = np.concatenate([g.ravel() for g in g32])
        g64 = np.concatenate([g.ravel() for g in g64])
        assert np.abs(g32 - g64).max() <= 1e-5 * np.abs(g64).max()


def test_overfit_single_sample():
    # L1 sign gradients keep bouncing at the step size, so decay the step to
    # let the network settle onto the single target
    rng = np.random.default_rng(5)
    net = StudentNet(seed=5)
    x = rng.uniform(-1, 1, size=(1, 275))
    y = np.array([[0.4, -0.3]])
    adam = Adam(net)
    loss = None
    for _ in range(2000):
        loss, grads = net.loss_and_grads(x, y)
        adam.step(net, grads)
        adam.lr *= 0.997
    assert loss < 1e-3


def kernel_modes(monkeypatch):
    """Yield "loaded", then "off" with every kernel switched off until the
    test ends: each test that loops over both runs Adam.step's kernel, when
    the kernels load, and its numpy loop."""
    yield "loaded"
    monkeypatch.setattr(_ckernel, "_loaded", None)
    yield "off"


def test_zero_learning_rate_keeps_params(monkeypatch):
    for kernels in kernel_modes(monkeypatch):
        rng = np.random.default_rng(9)
        net = StudentNet(seed=2)
        before = net.get_flat().copy()
        adam = Adam(net)
        adam.lr = 0.0
        x, y = random_batch(rng)
        for _ in range(5):
            _, grads = net.loss_and_grads(x, y)
            adam.step(net, grads)
        assert np.array_equal(net.get_flat(), before), kernels


def test_init_is_deterministic():
    assert np.array_equal(StudentNet(seed=4).get_flat(), StudentNet(seed=4).get_flat())
    assert not np.array_equal(StudentNet(seed=4).get_flat(), StudentNet(seed=5).get_flat())


def test_adam_rejects_nonfinite_gradient():
    net = StudentNet(seed=0)
    adam = Adam(net)
    grads = [np.zeros_like(p) for p in net.params]
    grads[0][0, 0] = np.nan
    with pytest.raises(TrainingDivergedError):
        adam.step(net, grads)


def test_adam_first_moments_never_go_subnormal(monkeypatch):
    # after one real gradient every first moment decays by ADAM_BETA1 a step,
    # and passes float32's subnormal range within about 1 800 steps
    for kernels in kernel_modes(monkeypatch):
        net = StudentNet(seed=3)
        adam = Adam(net)
        _, grads = net.loss_and_grads(*random_batch(np.random.default_rng(3)))
        adam.step(net, grads)
        zeros = [np.zeros_like(p) for p in net.params]
        tiny = np.finfo(np.float32).tiny
        for step in range(2500):
            adam.step(net, zeros)
            for m in adam.m:
                assert not ((m != 0) & (np.abs(m) < tiny)).any(), (
                    f"subnormal after step {step}, kernels {kernels}")
        assert all(not m.any() for m in adam.m), kernels


def adam_state_bits(net, adam):
    """The parameters and both moments, each array as its float32 bit patterns."""
    return [a.view(np.uint32) for a in (*net.params, *adam.m, *adam.v)]


def kernel_and_numpy_step(monkeypatch, pair, grads):
    """One Adam.step of each (net, adam) of pair with the same gradients: the
    first through the kernel, the second through the numpy loop."""
    (net, adam), (ref_net, ref_adam) = pair
    adam.step(net, grads)
    with monkeypatch.context() as patch:
        patch.setattr(_ckernel, "_loaded", None)
        ref_adam.step(ref_net, grads)


def twin_students(seed):
    return [(net, Adam(net)) for net in (StudentNet(seed=seed), StudentNet(seed=seed))]


@needs_c_compiler
@pytest.mark.parametrize("lr", [LEARNING_RATE, 0.0])
def test_adam_kernel_matches_the_numpy_loop_bit_for_bit(monkeypatch, lr):
    # 200 steps on batches of 8 random rows move every moment, then 1 800 on
    # one fixed row, on which about half the first layer's units never fire:
    # their first moments decay below tiny and are flushed, the negative
    # ones to -0.0. b3's 2 entries are fewer than one vector of the kernel
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    rng = np.random.default_rng(23)
    pair = twin_students(seed=6)
    for _, adam in pair:
        adam.lr = lr
    net = pair[0][0]
    fixed = random_batch(rng, n=1)
    flushed_negative = 0
    for step in range(2000):
        batch = random_batch(rng, n=8) if step < 200 else fixed
        _, grads = net.loss_and_grads(*batch)
        before = [m.copy() for m in pair[0][1].m]
        kernel_and_numpy_step(monkeypatch, pair, grads)
        for got, want in zip(adam_state_bits(*pair[0]), adam_state_bits(*pair[1])):
            assert np.array_equal(got, want), f"step {step}"
        flushed_negative += sum(int(((m_before < 0) & (m == 0) & np.signbit(m)).sum())
                                for m_before, m in zip(before, pair[0][1].m))
    assert flushed_negative > 0
    if lr == 0.0:
        assert np.array_equal(net.get_flat(), StudentNet(seed=6).get_flat())


@needs_c_compiler
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_kernel_stops_at_a_non_finite_gradient_as_the_numpy_loop_does(monkeypatch, bad):
    # the fourth array's gradient is bad: the first three are updated and
    # the last three left as they were, on either path
    assert _ckernel.load() is not None, "the C kernels failed to build or load"
    rng = np.random.default_rng(4)
    pair = twin_students(seed=8)
    for _ in range(3):
        _, grads = pair[0][0].loss_and_grads(*random_batch(rng))
        kernel_and_numpy_step(monkeypatch, pair, grads)
    (net, adam), (ref_net, ref_adam) = pair
    before = [a.copy() for a in adam_state_bits(net, adam)]
    _, grads = net.loss_and_grads(*random_batch(rng))
    grads[3][5] = bad
    with pytest.raises(TrainingDivergedError):
        adam.step(net, grads)
    with monkeypatch.context() as patch:
        patch.setattr(_ckernel, "_loaded", None)
        with pytest.raises(TrainingDivergedError):
            ref_adam.step(ref_net, grads)
    after = adam_state_bits(net, adam)
    for got, want in zip(after, adam_state_bits(ref_net, ref_adam)):
        assert np.array_equal(got, want)
    # parameters, first moments and second moments, six arrays each
    for k, (now, then) in enumerate(zip(after, before)):
        assert np.array_equal(now, then) == (k % 6 >= 3), k


def test_model_save_load_round_trip(tmp_path):
    net = StudentNet(seed=11)
    norm = {"speed_center": 0.05, "speed_half": 0.15, "yaw_half": 0.9425}
    path = tmp_path / "model.json"
    save_model(net, norm, path)
    loaded, loaded_norm = load_model(path)
    assert np.array_equal(loaded.get_flat(), net.get_flat())
    assert loaded_norm == norm
    # byte-identical on re-save
    path2 = tmp_path / "model2.json"
    save_model(loaded, loaded_norm, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_of_float64_weights_loads_rounded_to_float32(tmp_path):
    import json

    path = tmp_path / "model.json"
    save_model(StudentNet(seed=11), {}, path)
    doc = json.loads(path.read_text())
    # float64 values that float32 cannot hold exactly
    weights = [w + 1e-9 * (1 + k % 7) for k, w in enumerate(doc["weights"])]
    assert any(float(np.float32(w)) != w for w in weights)
    doc["weights"] = weights
    path.write_text(json.dumps(doc))
    loaded, _ = load_model(path)
    for p in loaded.params:
        assert p.dtype == np.float32
    assert np.array_equal(loaded.get_flat(), np.array([np.float32(w) for w in weights]))
    # re-saving writes the rounded decimals
    path2 = tmp_path / "model2.json"
    save_model(loaded, {}, path2)
    assert json.loads(path2.read_text())["weights"] == [float(np.float32(w)) for w in weights]


def test_model_version_check(tmp_path):
    import json

    net = StudentNet(seed=1)
    path = tmp_path / "model.json"
    save_model(net, {}, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def test_model_with_another_architecture_is_rejected_on_load(tmp_path):
    import json

    path = tmp_path / "model.json"
    save_model(StudentNet(seed=1), {}, path)
    doc = json.loads(path.read_text())
    doc["arch"] = [275, 64, 2]
    doc["weights"] = doc["weights"][:275 * 64 + 64 + 64 * 2 + 2]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"\[275, 64, 2\].*\[275, 256, 128, 2\]"):
        load_model(path)
