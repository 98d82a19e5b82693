import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specjoint import (
    ConfigError,
    FeatureKind,
    FormatError,
    HeadSpec,
    Model,
    NormStats,
    TrainConfig,
    TrainingData,
    TrainingDivergedError,
    Variant,
    assemble_batches,
    backward,
    batch_loss,
    init_model,
    input_dim,
    load_model,
    loss_and_output_grad,
    mean_losses,
    predict,
    save_model,
    sgd_step,
    train,
)
from specjoint.network import BLOCK_BYTES, _Momentum, _dataset_loss, _forward, _outputs, head_layout

from oracles import (
    CHECKPOINT_DEFECTS,
    as_float64,
    dense_rows,
    fd_gradient,
    kept_mask_gradients,
    loop_train,
    model_loss,
    out_of_place_sgd_step,
    random_training_data,
    spoil_model,
)

LPS_DIMS = 5
MFCC_DIMS = 3
INPUT_DIM = 12


def tiny_model(variant=Variant.BASELINE, seed=0, hidden_units=16, hidden_layers=2):
    return init_model(
        variant,
        INPUT_DIM,
        stats={},
        tau=3,
        noise_aware_frames=6,
        lps_dims=LPS_DIMS,
        mfcc_dims=MFCC_DIMS,
        hidden_units=hidden_units,
        hidden_layers=hidden_layers,
        seed=seed,
    )


def corpus_model(variant=Variant.BASELINE, seed=0, hidden_units=16, hidden_layers=2):
    """A tiny model as `train` builds one from a corpus: with LPS and MFCC
    statistics and the input width they give, so its checkpoint loads."""
    stats = {
        FeatureKind.LPS: NormStats(np.arange(5.0), np.arange(1.0, 6.0)),
        FeatureKind.MFCC: NormStats(np.array([0.5, -1.5, 2.5]), np.array([1.0, 2.0, 0.25])),
    }
    return init_model(
        variant,
        input_dim(variant, LPS_DIMS, MFCC_DIMS, 3),
        stats,
        tau=3,
        noise_aware_frames=6,
        lps_dims=LPS_DIMS,
        mfcc_dims=MFCC_DIMS,
        hidden_units=hidden_units,
        hidden_layers=hidden_layers,
        seed=seed,
    )


def tiny_data(variant=Variant.BASELINE, n_rows=24, seed=0):
    return random_training_data(variant, n_rows, INPUT_DIM, LPS_DIMS, MFCC_DIMS, seed)


def linear_model(weight, heads, bias=None):
    """Single linear layer built by hand, for exact forward math."""
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.zeros(weight.shape[1]) if bias is None else np.asarray(bias, dtype=np.float64)
    return Model(
        variant=Variant.BASELINE,
        tau=0,
        noise_aware_frames=1,
        weights=[weight],
        biases=[bias],
        heads=heads,
        stats={},
    )


def one_batch(data):
    return dense_rows(data.inputs, data.targets_lps, data.targets_mfcc, data.targets_ibm)


WIDE_INPUT = 8 * 298  # 2,384: tau 3 and 257 LPS + 41 MFCC columns, as the corpus lays them out


def frame_store_data(n_rows, seed, n_frames=300):
    """Rows whose 2,384-wide inputs are gathered from a small frame store,
    with LPS and bool mask targets, as load_training_data returns them."""
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((n_frames, WIDE_INPUT // 8)).astype(np.float32)
    windows = rng.integers(0, n_frames, (n_rows, 8))
    clean_lps = rng.standard_normal((n_frames, LPS_DIMS)).astype(np.float32)
    ibm = rng.random((n_rows, LPS_DIMS)) > 0.5
    return TrainingData(frames, windows, clean_lps, None, rng.integers(0, n_frames, n_rows), ibm)


def wide_model():
    return init_model(Variant.IBM, WIDE_INPUT, {}, 3, 6, LPS_DIMS, MFCC_DIMS, hidden_units=16, seed=8)


class TestInit:
    def test_deterministic(self):
        a, b = tiny_model(seed=3), tiny_model(seed=3)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_seed_changes_weights(self):
        a, b = tiny_model(seed=0), tiny_model(seed=1)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_biases_start_at_zero(self):
        model = tiny_model()
        for b in model.biases:
            assert np.all(b == 0.0)

    def test_weight_variance_matches_fan_balance(self):
        # U(-L, L) with L = sqrt(6/(fan_in+fan_out)) has variance
        # 2/(fan_in+fan_out); a wide layer estimates it tightly.
        model = init_model(
            Variant.BASELINE,
            2500,
            stats={},
            tau=3,
            noise_aware_frames=6,
            lps_dims=LPS_DIMS,
            mfcc_dims=MFCC_DIMS,
            hidden_units=2500,
            hidden_layers=1,
            seed=0,
        )
        target = 2.0 / (2500 + 2500)
        assert abs(model.weights[0].var() - target) < 0.1 * target

    def test_layer_shapes_and_dtype(self):
        model = tiny_model(Variant.MFCC_IBM)
        assert [w.shape for w in model.weights] == [(12, 16), (16, 16), (16, 13)]
        assert all(w.dtype == np.float32 for w in model.weights)
        assert model.input_dim == 12

    def test_rejects_empty_network(self):
        with pytest.raises(ConfigError, match="must be >= 1"):
            tiny_model(hidden_units=0)
        with pytest.raises(ConfigError, match="must be >= 1"):
            tiny_model(hidden_layers=0)


class TestHeadLayout:
    def test_offsets_chain(self):
        heads = head_layout(Variant.MFCC_IBM, LPS_DIMS, MFCC_DIMS)
        assert heads == (
            HeadSpec(FeatureKind.LPS, 0, 5),
            HeadSpec(FeatureKind.MFCC, 5, 3),
            HeadSpec(FeatureKind.IBM, 8, 5),
        )

    def test_mask_head_spans_spectrum(self):
        heads = head_layout(Variant.IBM, LPS_DIMS, MFCC_DIMS)
        assert heads == (HeadSpec(FeatureKind.LPS, 0, 5), HeadSpec(FeatureKind.IBM, 5, 5))

    def test_missing_head_lookup(self):
        heads = {spec.kind: spec for spec in tiny_model(Variant.BASELINE).heads}
        assert heads[FeatureKind.LPS].width == LPS_DIMS
        assert FeatureKind.IBM not in heads


class TestForward:
    def test_zero_input_zero_bias_gives_zero(self):
        model = tiny_model()
        out = _forward(model, np.zeros((3, INPUT_DIM), np.float32)).outputs
        assert np.all(out == 0.0)

    def test_hand_linear_layer(self):
        heads = (HeadSpec(FeatureKind.LPS, 0, 2),)
        model = linear_model(np.eye(2), heads, bias=[1.0, -1.0])
        out = _forward(model, np.array([[2.0, 3.0]])).outputs
        assert out.tolist() == [[3.0, 2.0]]

    def test_predict_splits_heads(self):
        heads = (HeadSpec(FeatureKind.LPS, 0, 2), HeadSpec(FeatureKind.IBM, 2, 2))
        model = linear_model(np.eye(4), heads)
        model.variant = Variant.IBM
        split = predict(model, np.array([[1.0, 2.0, 3.0, 4.0]]))
        assert split[FeatureKind.LPS].tolist() == [[1.0, 2.0]]
        assert split[FeatureKind.IBM].tolist() == [[3.0, 4.0]]

    def test_relu_clamps_hidden(self):
        # One hidden unit with a negative pre-activation contributes nothing.
        model = Model(
            Variant.BASELINE,
            0,
            1,
            weights=[np.array([[1.0], [-1.0]]), np.array([[2.0]])],
            biases=[np.zeros(1), np.zeros(1)],
            heads=(HeadSpec(FeatureKind.LPS, 0, 1),),
            stats={},
        )
        assert _forward(model, np.array([[3.0, 1.0]])).outputs.tolist() == [[4.0]]
        assert _forward(model, np.array([[1.0, 3.0]])).outputs.tolist() == [[0.0]]

    def test_input_dim_mismatch(self):
        with pytest.raises(ValueError, match="input dim mismatch"):
            _forward(tiny_model(), np.zeros((2, 5), np.float32))

    def test_dropout_needs_generator(self):
        with pytest.raises(ValueError, match="requires a generator"):
            _forward(tiny_model(), np.zeros((2, INPUT_DIM), np.float32), dropout=0.5)

    def test_dropout_zero_matches_plain(self):
        model = tiny_model()
        x = np.random.default_rng(0).standard_normal((4, INPUT_DIM)).astype(np.float32)
        plain = _forward(model, x).outputs
        with_rng = _forward(model, x, dropout=0.0, rng=np.random.default_rng(1)).outputs
        assert np.array_equal(plain, with_rng)

    def test_dropout_expectation_preserved(self):
        # Inverted dropout: averaging many stochastic forwards recovers the
        # deterministic output.
        rng = np.random.default_rng(7)
        model = Model(
            Variant.BASELINE,
            0,
            1,
            weights=[
                rng.uniform(0.5, 1.0, (6, 8)).astype(np.float32),
                rng.uniform(0.5, 1.0, (8, 4)).astype(np.float32),
            ],
            biases=[np.zeros(8, np.float32), np.zeros(4, np.float32)],
            heads=(HeadSpec(FeatureKind.LPS, 0, 4),),
            stats={},
        )
        x = rng.uniform(0.5, 1.0, (1, 6)).astype(np.float32)
        clean = _forward(model, x).outputs
        drop_rng = np.random.default_rng(123)
        total = np.zeros_like(clean, dtype=np.float64)
        for _ in range(10000):
            total += _forward(model, x, dropout=0.4, rng=drop_rng).outputs
        mean = total / 10000
        assert np.all(np.abs(mean - clean) / np.abs(clean) < 0.02)


class TestLoss:
    def loss_for(self, pred, target, kind=FeatureKind.LPS, alpha=0.1, beta=0.002):
        pred = np.asarray(pred, dtype=np.float64)
        heads = (HeadSpec(kind, 0, pred.shape[1]),)
        model = linear_model(np.eye(pred.shape[1]), heads)
        target = np.asarray(target, dtype=np.float64)
        batch = dense_rows(
            inputs=pred,
            targets_lps=target if kind == FeatureKind.LPS else np.zeros_like(target),
            targets_ibm=target if kind == FeatureKind.IBM else None,
        )
        if kind == FeatureKind.IBM:
            model.heads = (HeadSpec(FeatureKind.LPS, 0, pred.shape[1]),)
            batch = dense_rows(inputs=pred, targets_lps=target)
        report, grad = loss_and_output_grad(model, pred, batch, alpha, beta)
        return report, grad

    def test_perfect_prediction_is_zero(self):
        report, grad = self.loss_for([[1.0, 2.0]], [[1.0, 2.0]])
        assert report["total"] == 0.0
        assert np.all(grad == 0.0)

    def test_zero_estimate_normalizes_to_one(self):
        report, _ = self.loss_for([[0.0, 0.0, 0.0]], [[1.0, -2.0, 0.5]])
        assert report["lps"] == pytest.approx(1.0, abs=1e-12)

    def test_three_four_example(self):
        # ||(3,0)-(3,4)||^2 / ||(3,4)||^2 = 16/25.
        report, _ = self.loss_for([[3.0, 0.0]], [[3.0, 4.0]])
        assert report["lps"] == pytest.approx(0.64, abs=1e-12)

    def test_denominator_floor(self):
        # A silent target would divide by ~0; the floor keeps it finite.
        report, _ = self.loss_for([[1e-6, 0.0]], [[0.0, 0.0]])
        assert report["lps"] == pytest.approx(1e-12 / 1e-8, rel=1e-9)

    def test_mask_head_uses_plain_squared_error(self):
        heads = (HeadSpec(FeatureKind.LPS, 0, 2), HeadSpec(FeatureKind.IBM, 2, 2))
        model = linear_model(np.eye(4), heads)
        model.variant = Variant.IBM
        outputs = np.array([[1.0, 2.0, 0.5, 1.0]])
        batch = dense_rows(
            inputs=outputs,
            targets_lps=np.array([[1.0, 2.0]]),
            targets_ibm=np.array([[0.0, 1.0]]),
        )
        report, _ = loss_and_output_grad(model, outputs, batch, 0.1, 0.002)
        # Mask error (0.5-0)^2 + (1-1)^2 = 0.25 with no normalization.
        assert report["ibm"] == pytest.approx(0.25, abs=1e-12)
        assert report["total"] == pytest.approx(0.002 * 0.25, abs=1e-15)

    def test_unit_terms_weigh_to_default_total(self):
        # Each head contributing exactly 1 gives 1 + 0.1 + 0.002.
        model = tiny_model(Variant.MFCC_IBM)
        outputs = np.zeros((2, model.weights[-1].shape[1]))
        outputs[:, 8] = 1.0  # mask slice: one unit error per row
        batch = dense_rows(
            inputs=np.zeros((2, INPUT_DIM)),
            targets_lps=np.tile([3.0, 4.0, 0.0, 0.0, 0.0], (2, 1)),
            targets_mfcc=np.tile([1.0, 0.0, 0.0], (2, 1)),
            targets_ibm=np.zeros((2, 5)),
        )
        report, _ = loss_and_output_grad(model, outputs, batch, 0.1, 0.002)
        assert report["lps"] == pytest.approx(1.0, abs=1e-12)
        assert report["mfcc"] == pytest.approx(1.0, abs=1e-12)
        assert report["ibm"] == pytest.approx(1.0, abs=1e-12)
        assert report["total"] == pytest.approx(1.102, abs=1e-12)

    def test_total_decomposes(self):
        model = as_float64(tiny_model(Variant.MFCC_IBM, seed=5))
        data = tiny_data(Variant.MFCC_IBM, seed=5)
        batch = one_batch(data)
        outputs = _forward(model, batch.inputs.astype(np.float64)).outputs
        report, _ = loss_and_output_grad(model, outputs, batch, 0.1, 0.002)
        assert report["total"] == report["lps"] + 0.1 * report["mfcc"] + 0.002 * report["ibm"]

    def test_missing_targets_rejected(self):
        model = tiny_model(Variant.MFCC_IBM)
        outputs = np.zeros((1, model.weights[-1].shape[1]))
        batch = dense_rows(inputs=np.zeros((1, INPUT_DIM)), targets_lps=np.zeros((1, 5)))
        with pytest.raises(ValueError, match="no cepstral targets"):
            loss_and_output_grad(model, outputs, batch, 0.1, 0.002)


class TestBackward:
    @pytest.mark.parametrize("variant", [Variant.BASELINE, Variant.MFCC_IBM])
    def test_matches_finite_differences(self, variant):
        model = as_float64(tiny_model(variant, seed=2))
        batch = one_batch(tiny_data(variant, n_rows=8, seed=2))
        inputs = batch.inputs.astype(np.float64)
        batch = dense_rows(inputs, batch.targets_lps, batch.targets_mfcc, batch.targets_ibm)
        cache = _forward(model, inputs)
        _, output_grad = loss_and_output_grad(model, cache.outputs, batch, 0.1, 0.002)
        grad_w, _ = backward(model, cache, output_grad)
        rng = np.random.default_rng(0)
        for _ in range(12):
            layer = int(rng.integers(len(model.weights)))
            index = tuple(int(rng.integers(s)) for s in model.weights[layer].shape)
            numeric = fd_gradient(model, batch, 0.1, 0.002, layer, index)
            analytic = grad_w[layer][index]
            assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-10)

    def test_perfect_fit_has_zero_gradient(self):
        heads = (HeadSpec(FeatureKind.LPS, 0, 2),)
        model = linear_model(np.eye(2), heads)
        batch = dense_rows(inputs=np.array([[1.0, 2.0]]), targets_lps=np.array([[1.0, 2.0]]))
        cache = _forward(model, batch.inputs)
        _, output_grad = loss_and_output_grad(model, cache.outputs, batch, 0.1, 0.002)
        grad_w, grad_b = backward(model, cache, output_grad)
        assert np.all(grad_w[0] == 0.0) and np.all(grad_b[0] == 0.0)

    def test_cepstral_gradient_scales_with_alpha(self):
        model = as_float64(tiny_model(Variant.MFCC, seed=9))
        batch = one_batch(tiny_data(Variant.MFCC, n_rows=4, seed=9))
        cache = _forward(model, batch.inputs.astype(np.float64))
        _, g1 = loss_and_output_grad(model, cache.outputs, batch, 0.1, 0.002)
        _, g2 = loss_and_output_grad(model, cache.outputs, batch, 0.2, 0.002)
        (spec,) = [h for h in model.heads if h.kind == FeatureKind.MFCC]
        sl = slice(spec.offset, spec.offset + spec.width)
        assert g2[:, sl] == pytest.approx(2.0 * g1[:, sl], rel=1e-12)
        lps_sl = slice(0, 5)
        assert np.array_equal(g1[:, lps_sl], g2[:, lps_sl])


    def test_out_receives_the_allocated_gradients(self):
        model = tiny_model(Variant.MFCC_IBM, seed=4)
        batch = one_batch(tiny_data(Variant.MFCC_IBM, seed=4))
        cache = _forward(model, batch.inputs, dropout=0.2, rng=np.random.default_rng(4))
        _, output_grad = loss_and_output_grad(model, cache.outputs, batch, 0.1, 0.002)
        fresh = backward(model, cache, output_grad)
        out = (
            [np.full_like(w, np.nan) for w in model.weights],
            [np.full_like(b, np.nan) for b in model.biases],
        )
        arrays = out[0] + out[1]
        returned = backward(model, cache, output_grad, out=out)
        assert all(a is b for a, b in zip(returned[0] + returned[1], arrays))
        for a, b in zip(fresh[0] + fresh[1], arrays):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("hidden_layers", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dropout", [0.0, 0.1, 0.5])
    def test_matches_the_kept_mask_oracle(self, dropout, dtype, hidden_layers):
        model = tiny_model(Variant.MFCC_IBM, seed=6, hidden_layers=hidden_layers)
        if dtype == np.float64:
            as_float64(model)
        rng = np.random.default_rng(6)
        for w, b in zip(model.weights[:-1], model.biases[:-1]):
            b[:] = 0.1 * rng.standard_normal(b.shape)
            # Two units that read nothing: their pre-activation is exactly 0.
            w[:, :2] = 0.0
            b[:2] = 0.0, -0.0
        inputs = rng.standard_normal((40, INPUT_DIM)).astype(dtype)
        inputs[:3] = 0.0
        output_grad = rng.standard_normal((40, model.weights[-1].shape[1])).astype(dtype)
        cache = _forward(model, inputs, dropout, np.random.default_rng(7))
        grads = backward(model, cache, output_grad)
        outputs, pre, *want = kept_mask_gradients(
            model, inputs, output_grad, dropout, np.random.default_rng(7)
        )
        assert all(np.any(z == 0.0) and np.any(z < 0.0) and np.any(z > 0.0) for z in pre)
        assert cache.outputs.tobytes() == outputs.tobytes()
        for got, expected in zip(grads[0] + grads[1], want[0] + want[1]):
            assert got.dtype == expected.dtype == dtype
            assert got.tobytes() == expected.tobytes()

    def test_step_gets_each_layer_last_first_before_its_weights_change(self):
        model = tiny_model(Variant.MFCC_IBM, seed=5, hidden_layers=3)
        batch = one_batch(tiny_data(Variant.MFCC_IBM, seed=5))
        cache = _forward(model, batch.inputs, dropout=0.2, rng=np.random.default_rng(5))
        _, output_grad = loss_and_output_grad(model, cache.outputs, batch, 0.1, 0.002)
        expected = backward(model, cache, output_grad)
        arrived = []

        def step(layer, rows, grad_w, grad_b):
            # Each of these layers fits in one block, which brings the bias gradient.
            assert rows == slice(0, model.weights[layer].shape[0])
            arrived.append((layer, grad_w.tobytes(), grad_b.tobytes()))
            # A later read of this layer's weights would turn every gradient below it to NaN.
            model.weights[layer].fill(np.nan)
            model.biases[layer].fill(np.nan)

        assert backward(model, cache, output_grad, step=step) is None
        assert [layer for layer, _, _ in arrived] == [3, 2, 1, 0]
        for layer, grad_w, grad_b in arrived:
            assert grad_w == expected[0][layer].tobytes()
            assert grad_b == expected[1][layer].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("tail", [0, 1, 2])
    def test_row_blocks_match_the_whole_gradient(self, dtype, tail):
        # The first layer's weight gradient spans two blocks of 2,048-unit
        # rows, plus `tail` rows; a 1-row product would round otherwise.
        block = BLOCK_BYTES // (2048 * np.dtype(dtype).itemsize)
        model = init_model(
            Variant.IBM, 2 * block + tail, {}, 3, 6, LPS_DIMS, MFCC_DIMS, hidden_units=2048, hidden_layers=1
        )
        if dtype == np.float64:
            as_float64(model)
        rng = np.random.default_rng(tail)
        inputs = rng.standard_normal((128, model.input_dim)).astype(dtype)
        output_grad = rng.standard_normal((128, 2 * LPS_DIMS)).astype(dtype)
        cache = _forward(model, inputs, 0.1, np.random.default_rng(1))
        want_w, want_b = backward(model, cache, output_grad)
        got_w, got_b, sizes = [np.full_like(w, np.nan) for w in model.weights], {}, []

        def step(layer, rows, grad_w, grad_b):
            assert np.isnan(got_w[layer][rows]).all()
            got_w[layer][rows] = grad_w
            sizes.append(grad_w.shape[0])
            if grad_b is not None:
                assert layer not in got_b
                got_b[layer] = grad_b.copy()

        backward(model, cache, output_grad, step=step)
        for got, want in zip(got_w + [got_b[0], got_b[1]], want_w + [want_b[0], want_b[1]]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        first_layer = [block, block + 1] if tail == 1 else [block, block] + [tail] * (tail > 0)
        assert sizes == [2048] + first_layer


class TestSgdStep:
    def scalar_model(self, w0=1.0):
        heads = (HeadSpec(FeatureKind.LPS, 0, 1),)
        return linear_model(np.array([[w0]]), heads)

    def step(self, model, state, grad, lr, momentum):
        grads = ([np.array([[grad]])], [np.array([0.0])])
        sgd_step(model, grads, state, lr, momentum)

    def test_zero_rate_freezes_parameters(self):
        model = self.scalar_model()
        state = _Momentum.zeros_like(model)
        self.step(model, state, 5.0, lr=0.0, momentum=0.9)
        assert model.weights[0][0, 0] == 1.0

    def test_plain_sgd_without_momentum(self):
        model = self.scalar_model()
        state = _Momentum.zeros_like(model)
        self.step(model, state, 2.0, lr=0.1, momentum=0.0)
        assert model.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 2.0, rel=1e-6)

    def test_two_step_momentum_trace(self):
        # v1 = -0.1*2 = -0.2, w1 = 0.8
        # v2 = 0.9*(-0.2) - 0.1*1 = -0.28, w2 = 0.52
        model = self.scalar_model()
        state = _Momentum.zeros_like(model)
        self.step(model, state, 2.0, lr=0.1, momentum=0.9)
        assert model.weights[0][0, 0] == pytest.approx(0.8, rel=1e-6)
        self.step(model, state, 1.0, lr=0.1, momentum=0.9)
        assert model.weights[0][0, 0] == pytest.approx(0.52, rel=1e-6)

    def test_matches_out_of_place_oracle(self):
        fast, slow = tiny_model(Variant.MFCC_IBM, seed=6), tiny_model(Variant.MFCC_IBM, seed=6)
        fast_state, slow_state = _Momentum.zeros_like(fast), _Momentum.zeros_like(slow)
        data = tiny_data(Variant.MFCC_IBM, seed=6)
        steps = 0
        for epoch in range(2):
            for batch in assemble_batches(data, 8, shuffle_seed=epoch):
                cache = _forward(fast, batch.inputs)
                _, output_grad = loss_and_output_grad(fast, cache.outputs, batch, 0.1, 0.002)
                grad_w, grad_b = backward(fast, cache, output_grad)
                rate = 0.05 / (epoch + 1)
                out_of_place_sgd_step(slow, (grad_w, grad_b), slow_state, rate, 0.9)
                copies = ([g.copy() for g in grad_w], [g.copy() for g in grad_b])
                sgd_step(fast, copies, fast_state, rate, 0.9)
                fast_arrays = fast.weights + fast.biases + fast_state.velocity_w + fast_state.velocity_b
                slow_arrays = slow.weights + slow.biases + slow_state.velocity_w + slow_state.velocity_b
                for a, b in zip(fast_arrays, slow_arrays):
                    assert a.dtype == b.dtype == np.float32
                    assert a.tobytes() == b.tobytes()
                steps += 1
        assert steps == 6


class TestTrainConfig:
    def test_linear_decay_endpoints(self):
        cfg = TrainConfig(epochs=10, learning_rate=1.0, lr_final_fraction=0.1)
        assert cfg.learning_rate_at(0) == 1.0
        assert cfg.learning_rate_at(9) == pytest.approx(0.1)
        assert cfg.learning_rate_at(3) == pytest.approx(0.7)

    def test_single_epoch_keeps_rate(self):
        cfg = TrainConfig(epochs=1, learning_rate=0.5)
        assert cfg.learning_rate_at(0) == 0.5

    def test_zero_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"epochs": 0}, "epochs must be >= 1"),
            ({"batch_size": 0}, "batch_size must be >= 1"),
            ({"learning_rate": -0.1}, "learning_rate must be >= 0"),
            ({"lr_final_fraction": 0.0}, "lr_final_fraction"),
            ({"momentum": 1.0}, "momentum must be in"),
            ({"dropout": 1.0}, "dropout must be in"),
            ({"alpha": -1.0}, "alpha and beta"),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**kwargs)


class TestTrain:
    def test_zero_rate_leaves_parameters_untouched(self):
        model = tiny_model(seed=4)
        before = [w.copy() for w in model.weights]
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, dropout=0.0, seed=4)
        history = train(model, tiny_data(seed=4), config)
        assert len(history) == 3
        for w, w0 in zip(model.weights, before):
            assert np.array_equal(w, w0)
        totals = [h.train["total"] for h in history]
        assert totals[0] == totals[1] == totals[2]

    def test_fixed_seed_reproduces_run(self):
        config = TrainConfig(epochs=4, batch_size=8, learning_rate=0.01, seed=7)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=7)
            history = train(model, tiny_data(seed=7), config)
            runs.append((model, [h.train["total"] for h in history]))
        assert runs[0][1] == runs[1][1]
        for wa, wb in zip(runs[0][0].weights, runs[1][0].weights):
            assert np.array_equal(wa, wb)

    def test_loss_decreases_on_learnable_data(self):
        model = tiny_model(Variant.BASELINE, seed=1)
        config = TrainConfig(epochs=20, batch_size=8, learning_rate=0.01, dropout=0.0, seed=1)
        history = train(model, tiny_data(seed=1), config)
        assert history[-1].train["total"] < history[0].train["total"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_history(self):
        model = tiny_model(seed=0)
        config = TrainConfig(epochs=50, batch_size=8, learning_rate=1e9, dropout=0.0, seed=0)
        with pytest.raises(TrainingDivergedError, match="non-finite loss") as err:
            train(model, tiny_data(seed=0), config)
        assert isinstance(err.value.history, list)
        # The model is rolled back to the last completed epoch, so its
        # parameters are still finite and the checkpoint stays writable.
        for w in model.weights:
            assert np.all(np.isfinite(w))

    def test_restore_best_rewinds_to_best_epoch(self):
        model = tiny_model(seed=3)
        val = tiny_data(seed=99)
        config = TrainConfig(epochs=10, batch_size=8, learning_rate=0.02, seed=3)
        history = train(model, tiny_data(seed=3), config, val_data=val)
        recomputed = _dataset_loss(model, val, config.alpha, config.beta)
        assert recomputed["total"] == min(h.val["total"] for h in history)

    def test_rows_of_another_variant_train_as_their_own_or_fail(self, tmp_path):
        # The two draws share inputs and LPS/MFCC targets; mfcc+ibm adds mask targets.
        width = input_dim(Variant.MFCC, LPS_DIMS, MFCC_DIMS, 3)
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=5)
        for variant in (Variant.MFCC, Variant.MFCC_IBM):
            model = corpus_model(Variant.MFCC, seed=5)
            train(model, random_training_data(variant, 24, width, LPS_DIMS, MFCC_DIMS, 5), config)
            save_model(tmp_path / f"{variant.name}.sjnn", model)
        assert (tmp_path / "MFCC.sjnn").read_bytes() == (tmp_path / "MFCC_IBM.sjnn").read_bytes()
        baseline_width = input_dim(Variant.BASELINE, LPS_DIMS, MFCC_DIMS, 3)
        baseline = random_training_data(Variant.BASELINE, 24, baseline_width, LPS_DIMS, MFCC_DIMS, 5)
        with pytest.raises(ValueError, match="rows have no mask targets"):
            train(corpus_model(Variant.IBM), baseline, config)
        with pytest.raises(ValueError, match="input dim mismatch"):
            train(corpus_model(Variant.MFCC), baseline, config)

    def test_matches_the_whole_set_oracle_loop(self, monkeypatch):
        # Dropout, a validation split of two chunks and three epochs: the
        # per-layer updates leave every parameter and velocity bit as one
        # whole-model step after a whole backward pass does.
        config = TrainConfig(epochs=3, batch_size=8, learning_rate=0.05, dropout=0.2, seed=11)
        data = tiny_data(Variant.MFCC_IBM, n_rows=40, seed=11)
        val = tiny_data(Variant.MFCC_IBM, n_rows=4100, seed=12)
        states = []
        zeros_like = _Momentum.zeros_like

        def recorded_zeros_like(cls, model):
            states.append(zeros_like(model))
            return states[-1]

        monkeypatch.setattr(_Momentum, "zeros_like", classmethod(recorded_zeros_like))
        fast = tiny_model(Variant.MFCC_IBM, seed=11, hidden_layers=3)
        history = train(fast, data, config, val_data=val)
        monkeypatch.undo()
        slow = tiny_model(Variant.MFCC_IBM, seed=11, hidden_layers=3)
        slow_history, slow_state = loop_train(slow, data, config, val_data=val)
        assert history == slow_history
        (state,) = states
        fast_arrays = fast.weights + fast.biases + state.velocity_w + state.velocity_b
        slow_arrays = slow.weights + slow.biases + slow_state.velocity_w + slow_state.velocity_b
        for a, b in zip(fast_arrays, slow_arrays, strict=True):
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()

    def test_validation_reported(self):
        model = tiny_model(seed=6)
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=6)
        history = train(model, tiny_data(seed=6), config, val_data=tiny_data(seed=8))
        assert all(h.val is not None for h in history)
        assert all(h.val["total"] > 0.0 for h in history)


class TestCheckpoint:
    def trained_model(self):
        model = corpus_model(Variant.MFCC_IBM, seed=11)
        data = random_training_data(Variant.MFCC_IBM, 24, model.input_dim, LPS_DIMS, MFCC_DIMS, 11)
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=11)
        train(model, data, config)
        return model

    def test_roundtrip(self, tmp_path):
        model = self.trained_model()
        path = tmp_path / "model.sjnn"
        save_model(path, model)
        back = load_model(path)
        assert back.variant == model.variant
        assert back.tau == model.tau
        assert back.noise_aware_frames == model.noise_aware_frames
        assert back.heads == model.heads
        for wa, wb in zip(back.weights, model.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(back.biases, model.biases):
            assert np.array_equal(ba, bb)
        for kind in model.stats:
            assert np.array_equal(back.stats[kind].mean, model.stats[kind].mean)
            assert np.array_equal(back.stats[kind].variance, model.stats[kind].variance)

    def test_save_is_deterministic(self, tmp_path):
        model = self.trained_model()
        save_model(tmp_path / "a.sjnn", model)
        save_model(tmp_path / "b.sjnn", model)
        assert (tmp_path / "a.sjnn").read_bytes() == (tmp_path / "b.sjnn").read_bytes()

    @pytest.mark.parametrize(
        "variant, code",
        [
            (Variant.BASELINE, 0),
            (Variant.MFCC_OUT, 1),
            (Variant.MFCC, 2),
            (Variant.IBM, 3),
            (Variant.MFCC_IBM, 4),
        ],
    )
    def test_variant_code_is_pinned(self, tmp_path, variant, code):
        # Saved models name their variant by this byte, so reordering
        # Variant must not remap them.
        path = tmp_path / "model.sjnn"
        save_model(path, corpus_model(variant, hidden_layers=1))
        assert path.read_bytes()[8] == code
        assert load_model(path).variant == variant

    def saved(self, tmp_path):
        path = tmp_path / "model.sjnn"
        save_model(path, corpus_model(seed=0, hidden_layers=1))
        return path

    def test_rejects_wrong_magic(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="not a model checkpoint"):
            load_model(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unsupported checkpoint version"):
            load_model(path)

    def test_rejects_unknown_variant_code(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[8] = 200
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unknown variant code"):
            load_model(path)

    def test_rejects_inconsistent_shapes(self, tmp_path):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        # Second layer's fan_in lives right after the first <II> shape pair.
        offset = 4 + 4 + 9 + 4 + 8
        (fan_in,) = struct.unpack_from("<I", blob, offset)
        struct.pack_into("<I", blob, offset, fan_in + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="inconsistent layer shapes"):
            load_model(path)

    @pytest.mark.parametrize("byte", ["head", "stats"])
    def test_rejects_unknown_feature_kind(self, tmp_path, byte):
        path = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        # Two layers: the head count follows 4 + 4 + 9 + 4 + 2 * 8 bytes, and
        # each head is <BII>; the stats count byte follows the heads.
        first_head = 4 + 4 + 9 + 4 + 16 + 1
        n_heads = blob[first_head - 1]
        blob[first_head if byte == "head" else first_head + 9 * n_heads + 1] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unknown feature kind 9"):
            load_model(path)

    @pytest.mark.parametrize("fault", ["variant", "order", "offset", "width"])
    def test_rejects_misfit_head_table(self, tmp_path, fault):
        path = tmp_path / "model.sjnn"
        save_model(path, corpus_model(Variant.MFCC_IBM, seed=0, hidden_layers=1))
        blob = bytearray(path.read_bytes())
        # Two layers: the LPS, MFCC and IBM heads follow as <BII> (kind,
        # offset, width) after 4 + 4 + 9 + 4 + 2 * 8 bytes and the count byte.
        heads = 4 + 4 + 9 + 4 + 16 + 1
        if fault == "variant":
            blob[8] = 0  # baseline, which has only the LPS head
        elif fault == "order":
            blob[heads + 9], blob[heads + 18] = blob[heads + 18], blob[heads + 9]
        elif fault == "offset":
            struct.pack_into("<I", blob, heads + 9 + 1, LPS_DIMS + 1)
        else:
            struct.pack_into("<I", blob, heads + 18 + 5, LPS_DIMS - 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="head table does not fit"):
            load_model(path)

    def test_rejects_missing_lps_stats(self, tmp_path):
        # Without them the LPS head's width is unknown, so no layout fits.
        model = corpus_model(hidden_layers=1)
        del model.stats[FeatureKind.LPS]
        path = tmp_path / "model.sjnn"
        save_model(path, model)
        with pytest.raises(FormatError, match="head table does not fit"):
            load_model(path)

    def test_rejects_zero_layers(self, tmp_path):
        model = corpus_model()
        model.weights, model.biases = [], []
        path = tmp_path / "model.sjnn"
        save_model(path, model)
        with pytest.raises(FormatError, match="checkpoint has no layers"):
            load_model(path)

    @pytest.mark.parametrize("defect", CHECKPOINT_DEFECTS)
    def test_rejects_a_model_that_cannot_run(self, tmp_path, defect):
        model = corpus_model(hidden_layers=1)
        spoil_model(model, defect)
        path = tmp_path / "model.sjnn"
        save_model(path, model)
        message = {
            "no noise-aware frames": "noise_aware_frames must be >= 1, got 0",
            "zero variance": "variance must be strictly positive",
        }.get(defect, "checkpoint holds a NaN or infinite value")
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {message}"

    def test_rejects_truncation(self, tmp_path):
        path = self.saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(FormatError, match="checkpoint truncated"):
            load_model(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="2 trailing bytes"):
            load_model(path)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    model = corpus_model(Variant.MFCC_IBM, seed=11, hidden_layers=1)
    path = tmp_path_factory.mktemp("checkpoint") / "model.sjnn"
    save_model(path, model)
    return path


class TestCheckpointFuzz:
    @settings(max_examples=200)
    @given(cut=st.floats(0.0, 1.0, exclude_max=True))
    def test_every_strict_prefix_is_truncated(self, checkpoint, cut):
        blob = checkpoint.read_bytes()
        path = checkpoint.with_name("cut.sjnn")
        path.write_bytes(blob[: int(cut * len(blob))])
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: checkpoint truncated"

    @settings(max_examples=50)
    @given(extra=st.binary(min_size=1, max_size=300))
    def test_appended_bytes_are_counted(self, checkpoint, extra):
        path = checkpoint.with_name("long.sjnn")
        path.write_bytes(checkpoint.read_bytes() + extra)
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: {len(extra)} trailing bytes"

    @settings(max_examples=50)
    @given(
        variant=st.sampled_from(list(Variant)),
        hidden_units=st.integers(1, 8),
        hidden_layers=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_untouched_file_round_trips(self, checkpoint, variant, hidden_units, hidden_layers, seed):
        model = corpus_model(variant, seed, hidden_units, hidden_layers)
        rng = np.random.default_rng(seed)
        model.biases = [rng.standard_normal(b.shape).astype(np.float32) for b in model.biases]
        model.stats[FeatureKind.LPS] = NormStats(rng.standard_normal(5), rng.random(5))
        first, second = checkpoint.with_name("first.sjnn"), checkpoint.with_name("second.sjnn")
        save_model(first, model)
        back = load_model(first)
        save_model(second, back)
        assert first.read_bytes() == second.read_bytes()
        assert (back.variant, back.tau, back.noise_aware_frames, back.heads) == (
            model.variant, model.tau, model.noise_aware_frames, model.heads
        )
        for a, b in zip(back.weights + back.biases, model.weights + model.biases):
            assert a.dtype == np.float32 and a.tobytes() == b.tobytes()
        assert back.stats.keys() == model.stats.keys()
        for kind, stats in model.stats.items():
            assert back.stats[kind].mean.tobytes() == stats.mean.tobytes()
            assert back.stats[kind].variance.tobytes() == stats.variance.tobytes()


def traced_peak(run) -> int:
    """Peak bytes traced by tracemalloc while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def parameter_bytes(model) -> int:
    return sum(a.nbytes for a in model.weights + model.biases)


class TestMemory:
    """Peak memory pins, in units of the model's parameter bytes; the 512-unit
    hidden layers make the parameters dwarf everything else allocated."""

    def test_load_holds_the_model_once(self, tmp_path):
        model = corpus_model(hidden_units=512)
        path = tmp_path / "model.sjnn"
        save_model(path, model)
        load_model(path)  # first-use allocations are not what this measures
        assert traced_peak(lambda: load_model(path)) < 1.25 * parameter_bytes(model)

    def test_train_holds_gradients_in_row_blocks(self):
        # Two 1536x1536 layers hold nearly all the parameters. Velocity and
        # the epoch-start snapshot come to 2x the parameters, and a 1 MB block
        # of weight gradients to 0.05x; one layer-sized buffer would pass 2.5x.
        model = tiny_model(hidden_units=1536, hidden_layers=3)
        assert BLOCK_BYTES < 0.1 * parameter_bytes(model)
        data = tiny_data(n_rows=16)
        config = TrainConfig(epochs=2, batch_size=8, learning_rate=0.01, seed=0)
        train(tiny_model(), data, config)
        assert traced_peak(lambda: train(model, data, config)) < 2.1 * parameter_bytes(model)

    def test_validation_gathers_no_chunk(self):
        model, data = wide_model(), frame_store_data(4096, seed=0)
        gathered = 4096 * WIDE_INPUT * 4
        _dataset_loss(model, data, 0.1, 0.002)
        assert traced_peak(lambda: _dataset_loss(model, data, 0.1, 0.002)) < gathered / 2

    def test_loss_and_predict_keep_no_backward_cache(self):
        # Four hidden layers of 2,000 rows: a pass holds a layer's input, its
        # product and its sum with the bias at once, while one that kept its
        # backward cache would hold eight such layer outputs at its end.
        model = tiny_model(hidden_units=512, hidden_layers=4)
        data = tiny_data(n_rows=2000)
        layer_bytes = 2000 * 512 * 4
        _dataset_loss(model, data, 0.1, 0.002)
        assert traced_peak(lambda: _dataset_loss(model, data, 0.1, 0.002)) < 4 * layer_bytes
        assert traced_peak(lambda: predict(model, data.inputs)) < 4 * layer_bytes


class TestLossMean:
    def test_weights_by_rows(self):
        reports = [
            ({"total": 1.0, "lps": 1.0, "ibm": 4.0}, 1),
            ({"total": 4.0, "lps": 2.0, "ibm": 1.0}, 3),
        ]
        mean = mean_losses(reports)
        assert mean == {"total": 13.0 / 4, "lps": 7.0 / 4, "ibm": 7.0 / 4}


class TestBatchLoss:
    def test_matches_oracle(self):
        model = tiny_model(Variant.MFCC_IBM, seed=13)
        batch = one_batch(tiny_data(Variant.MFCC_IBM, seed=13))
        report = batch_loss(model, batch, 0.1, 0.002)
        assert report["total"] == pytest.approx(model_loss(model, batch, 0.1, 0.002), rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)], ids=["1", "b-1", "b", "b+1", "2b+1"]
    )
    def test_blocked_first_layer_matches_the_gathered_pass(self, dtype, blocks, extra):
        # Blocks of 109 gathered rows; a 1-row block would round otherwise.
        data = frame_store_data(blocks * (BLOCK_BYTES // (WIDE_INPUT * 4)) + extra, seed=blocks + extra)
        model = wide_model()
        if dtype == np.float64:
            as_float64(model)
        got, want = _outputs(model, data), _forward(model, data.inputs, keep=False).outputs
        assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()
        assert batch_loss(model, data, 0.1, 0.002) == loss_and_output_grad(model, want, data, 0.1, 0.002)[0]
