import numpy as np
import pytest

from codemix.errors import (CodemixError, DataError, NonFiniteError,
                             ShapeError)
from codemix.numerics import (AdamWState, Tensor, adamw_step, gather_rows,
                              gelu, layer_norm, linear, log_softmax,
                              make_rng, matmul, no_grad, softmax)
from codemix.numerics.tensor import (RowLayout, _assert_finite, _make,
                                     dropout_mask, layer_norm_forward)
from codemix.seq2seq.model import NEG_INF

from baseline import _stack
from oracles import (add, attention, check_pure_backward, exp,
                     finite_diff_grad_check, mul, reference_attention,
                     reference_js_node, reshape, take_along_last, tape_nodes,
                     tsum)


def rnd(shape, seed=0, scale=1.0):
    return make_rng(seed).standard_normal(shape) * scale


class TestSoftmax:
    def test_symmetric_pair(self):
        assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_far_from_zero(self):
        # max-subtraction keeps huge logits stable
        assert np.allclose(softmax(Tensor([1000.0, 1000.0])).data, [0.5, 0.5])

    def test_uniform_for_any_constant(self):
        for c in (-7.0, 0.0, 3.5, 1e4):
            out = softmax(Tensor([c, c, c])).data
            assert np.allclose(out, [1 / 3] * 3, atol=1e-6)

    def test_shift_invariance(self):
        x = rnd((4, 9), seed=3)
        for c in (-100.0, 0.123, 57.0):
            a = softmax(Tensor(x)).data
            b = softmax(Tensor(x + c)).data
            assert np.abs(a - b).max() < 1e-6

    def test_rows_sum_to_one(self):
        out = softmax(Tensor(rnd((6, 11), seed=1) * 5)).data
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-6

    def test_nan_input_rejected(self):
        with pytest.raises(NonFiniteError):
            softmax(Tensor(np.array([1.0, np.nan])))


class TestTensorBasics:
    def test_non_finite_is_hard_error(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, np.inf]))

    def test_ops_reject_non_finite_results(self):
        a = Tensor(np.array([1e30], dtype=np.float32))
        with pytest.raises(NonFiniteError, match="mul output"):
            mul(a, a)  # overflows float32

    @pytest.mark.parametrize("bad", [np.array(np.nan),
                                     np.array(np.inf, dtype=np.float32),
                                     np.array([1.0, -np.inf]),
                                     np.full((2, 3), np.nan)])
    def test_finite_check_rejects_nan_and_inf(self, bad):
        with pytest.raises(NonFiniteError, match="non-finite values in x"):
            _assert_finite(bad, "x")

    def test_finite_check_accepts_finite_and_empty(self):
        for ok in (np.array(1.0), np.zeros((0, 3)),
                   np.full(4, np.finfo(np.float32).max, dtype=np.float32)):
            _assert_finite(ok, "x")

    def test_layer_norm_forward_equals_mean_form(self):
        rng = make_rng(8)
        for dtype in (np.float32, np.float64):
            for shape in ((1, 1), (3, 7), (2, 5, 64), (4, 1, 256)):
                x = (rng.standard_normal(shape) * rng.uniform(1e-3, 1e3)
                     + rng.uniform(-50, 50)).astype(dtype)
                gain, bias = (rng.standard_normal(shape[-1:]).astype(dtype)
                              for _ in range(2))
                xc = x - x.mean(axis=-1, keepdims=True)
                inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True)
                                    + 1e-5)
                out = layer_norm_forward(x, gain, bias)[0]
                assert out.dtype == dtype
                assert np.array_equal(out, xc * inv * gain + bias), shape

    def test_matmul_identity_exact_shape(self):
        a = rnd((5, 7), seed=2)
        out = matmul(Tensor(a), Tensor(np.eye(7)))
        assert out.shape == (5, 7)
        assert np.abs(out.data - a).max() < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_python_number_operand_keeps_the_tensor_dtype(self, dtype):
        # NumPy computes x * 0.1 in x's dtype (NEP 50); so must the tape
        x = rnd((3, 4), seed=6).astype(dtype)
        for s in (0.1, -3, 1 / 3):
            for op, want in ((add, x + s), (mul, x * s)):
                for got in (op(Tensor(x), s), op(s, Tensor(x))):
                    assert got.dtype == dtype
                    assert np.array_equal(got.data, want), (op, s)
            t = Tensor(x, requires_grad=True)
            tsum(mul(t, s)).backward()
            assert t.grad.dtype == dtype
            assert np.array_equal(t.grad, np.ones_like(x) * s)

    def test_backward_requires_scalar(self):
        t = Tensor(rnd((3,)), requires_grad=True)
        with pytest.raises(ShapeError):
            add(t, t).backward()

    def test_no_grad_suppresses_tape(self):
        t = Tensor(rnd((3,)), requires_grad=True)
        with no_grad():
            out = mul(t, t)
        assert out._backward is None and not out.requires_grad

    def test_grad_accumulates_over_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        loss = tsum(add(mul(t, t), t))  # d/dt (t^2 + t) = 2t + 1 = 5
        loss.backward()
        assert np.allclose(t.grad, [5.0])

    def test_backward_adds_only_into_parents_that_require_a_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        c = Tensor(np.array([3.0, 4.0]))
        out = _make(a.data + c.data, (a, c), lambda g: (2.0 * g, 3.0 * g),
                    "probe")
        tsum(out).backward()
        assert np.array_equal(a.grad, [2.0, 2.0]) and c.grad is None

    @pytest.mark.parametrize("n", [1, 3])
    def test_wrong_gradient_count_raises(self, n):
        a, c = (Tensor(rnd((2,)), requires_grad=True) for _ in range(2))
        out = _make(a.data + c.data, (a, c), lambda g: (g,) * n, "probe")
        with pytest.raises(ValueError):
            tsum(out).backward()

    def test_every_op_returns_one_gradient_per_parent(self):
        # each tape op here and in the tests' oracles, on one tape
        x, w, b, g, table = (Tensor(rnd(s, seed=i), requires_grad=True)
                             for i, s in enumerate([(3, 4), (4, 4), (4,),
                                                    (4,), (6, 4)]))
        rows = RowLayout(np.ones((1, 3), dtype=bool))
        h = gelu(matmul(gather_rows(table, [[0, 2], [1, 5]]), w))
        lp = log_softmax(linear(x, table, transpose_w=True))
        probs = softmax(layer_norm(linear(x, w, b), g, b))
        roots = [h, take_along_last(lp, [0, 5, 2]),
                 reference_js_node(np.full((3, 4), 0.25), probs, 1.0 / 3),
                 exp(reshape(add(mul(x, 2.0), 1.0), (12,))),
                 attention(x, x, x, rows, rows, None, 2, "x"),
                 tsum(_stack([tsum(x, axis=0), b]))]
        names = check_pure_backward(tape_nodes(*roots))
        assert {n.split(".<locals>")[0] for n in names} == {
            "matmul", "gelu", "linear", "softmax", "log_softmax",
            "layer_norm", "gather_rows", "take_along_last",
            "reference_js_node", "exp", "reshape", "add", "mul", "tsum",
            "_stack", "attend"}


class TestPrimitiveGradients:
    """Every primitive's tape gradient vs central differences in f64."""

    CASES = {
        "add": (lambda p, c: tsum(mul(add(p["a"], p["b"]), c["m"])),
                {"a": (3, 4), "b": (3, 4)}),
        "add_broadcast": (lambda p, c: tsum(mul(add(p["a"], p["v"]), c["m"])),
                          {"a": (3, 4), "v": (4,)}),
        "mul": (lambda p, c: tsum(mul(mul(p["a"], p["b"]), c["m"])),
                {"a": (3, 4), "b": (3, 4)}),
        "matmul": (lambda p, c: tsum(mul(matmul(p["a"], p["w"]), c["mm"])),
                   {"a": (3, 4), "w": (4, 5)}),
        "matmul_batched": (lambda p, c: tsum(mul(matmul(p["q"], p["k"]), c["mb"])),
                           {"q": (2, 3, 4), "k": (2, 4, 5)}),
        "linear": (lambda p, c: tsum(mul(linear(p["x3"], p["w"], p["bias"]), c["mb"])),
                   {"x3": (2, 3, 4), "w": (4, 5), "bias": (5,)}),
        "linear_t": (lambda p, c: tsum(mul(linear(p["x3"], p["wt"], transpose_w=True), c["mb"])),
                     {"x3": (2, 3, 4), "wt": (5, 4)}),
        "softmax": (lambda p, c: tsum(mul(softmax(p["a"]), c["m"])),
                    {"a": (3, 4)}),
        "log_softmax": (lambda p, c: tsum(mul(log_softmax(p["a"]), c["m"])),
                        {"a": (3, 4)}),
        "layer_norm": (lambda p, c: tsum(mul(layer_norm(p["a"], p["g"], p["bias4"]), c["m"])),
                       {"a": (3, 4), "g": (4,), "bias4": (4,)}),
        "gelu": (lambda p, c: tsum(mul(gelu(p["a"]), c["m"])), {"a": (3, 4)}),
        "exp": (lambda p, c: tsum(exp(p["a"])), {"a": (3, 4)}),
        "gather": (lambda p, c: tsum(mul(gather_rows(p["tab"], c["idx"]), c["g"])),
                   {"tab": (5, 4)}),
        "take_along": (lambda p, c: tsum(take_along_last(p["a"], c["pick"])),
                       {"a": (3, 4)}),
        "reshape": (lambda p, c: tsum(mul(reshape(p["a"], (12,)), c["flat"])),
                    {"a": (3, 4)}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gradcheck(self, name):
        fn, shapes = self.CASES[name]
        rng = make_rng(11)
        consts = {
            "m": Tensor(rng.standard_normal((3, 4))),
            "mm": Tensor(rng.standard_normal((3, 5))),
            "mb": Tensor(rng.standard_normal((2, 3, 5))),
            "flat": Tensor(rng.standard_normal(12)),
            "g": Tensor(rng.standard_normal((2, 3, 4))),
            "idx": np.array([[0, 4, 2], [2, 1, 3]]),
            "pick": np.array([1, 0, 3]),
        }
        params = {k: Tensor(rng.standard_normal(s), requires_grad=True)
                  for k, s in shapes.items()}
        err = finite_diff_grad_check(lambda p: fn(p, consts), params,
                                     epsilon=1e-6, max_coords_per_tensor=8)
        assert err < 1e-6, f"{name}: rel err {err}"


class TestAttention:
    """The attention node on packed rows against a float64 per-head loop
    on the padded blocks and central differences: causal and key-padding
    masks, padded query and key rows, S != T, 1/2/4 heads, and dropout
    from a fixed RNG stream."""

    # (heads, T, S, mask kind, dropout probability)
    CASES = {"causal_h1": (1, 5, 5, "causal", 0.0),
             "causal_h4_dropout": (4, 4, 4, "causal", 0.3),
             "padded_h2_s_gt_t": (2, 3, 6, "padding", 0.0),
             "padded_h2_dropout_s_lt_t": (2, 5, 3, "padding", 0.5),
             "padded_h4_dropout": (4, 2, 5, "padding", 0.2)}

    @staticmethod
    def inputs(heads, T, S, kind, seed=3, B=2, D=8):
        """Padded blocks q (B, T, D), k, v (B, S, D), the mask, and the
        query and key layouts: batch row 1 is shorter than row 0."""
        rng = make_rng(seed)
        q = rng.standard_normal((B, T, D))
        k, v = (rng.standard_normal((B, S, D)) for _ in range(2))
        q_real, k_real = np.ones((B, T), bool), np.ones((B, S), bool)
        if kind == "causal":  # self-attention: one layout, padding at the end
            mask = np.triu(np.full((T, S), NEG_INF), k=1)[None, None]
            q_real[1, T - 1:] = k_real[1, S - 1:] = False
        else:
            mask = np.zeros((B, 1, 1, S))
            mask[1, ..., S // 2:] = NEG_INF  # row 1 pads its later keys
            k_real[1, S // 2:] = False
            q_real[1, (T + 1) // 2:] = False
        return q, k, v, mask, RowLayout(q_real), RowLayout(k_real)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_forward_matches_reference(self, name):
        heads, T, S, kind, p = self.CASES[name]
        q, k, v, mask, q_rows, k_rows = self.inputs(heads, T, S, kind)
        keep = None
        if p > 0:
            keep = (make_rng(9).random((2, heads, T, S)) >= p) / (1.0 - p)
        captured = []
        out = attention(Tensor(q_rows.pack(q)), Tensor(k_rows.pack(k)),
                        Tensor(k_rows.pack(v)), q_rows, k_rows, mask, heads,
                        "x", p, make_rng(9), captured)
        padded = [rows.pad(rows.pack(a))
                  for rows, a in ((q_rows, q), (k_rows, k), (k_rows, v))]
        want, weights = reference_attention(*padded, mask, heads, keep)
        assert out.shape == (q_rows.idx.size, 8)
        assert np.allclose(out.data, q_rows.pack(want), rtol=1e-12,
                           atol=1e-12)
        assert len(captured) == 1  # the weights before dropout
        real = q_rows.pack(captured[0].transpose(0, 2, 1, 3).reshape(
            2, T, -1))
        assert np.allclose(real, q_rows.pack(weights.transpose(
            0, 2, 1, 3).reshape(2, T, -1)), rtol=1e-12, atol=1e-12)
        if kind == "padding":
            assert not captured[0][1, ..., S // 2:].any()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gradcheck(self, name):
        heads, T, S, kind, p = self.CASES[name]
        q, k, v, mask, q_rows, k_rows = self.inputs(heads, T, S, kind)
        weight = Tensor(make_rng(4).standard_normal((q_rows.idx.size, 8)))
        params = {"q": Tensor(q_rows.pack(q), requires_grad=True),
                  "k": Tensor(k_rows.pack(k), requires_grad=True),
                  "v": Tensor(k_rows.pack(v), requires_grad=True)}

        def loss(ps):
            out = attention(ps["q"], ps["k"], ps["v"], q_rows, k_rows, mask,
                            heads, "x", p, make_rng(9))
            return tsum(mul(out, weight))

        err = finite_diff_grad_check(loss, params, epsilon=1e-6,
                                     max_coords_per_tensor=12)
        assert err < 1e-6, f"{name}: rel err {err}"

    def test_non_finite_scores_name_the_sublayer(self):
        q, k, v, mask, q_rows, k_rows = self.inputs(2, 3, 3, "causal")
        q[0, 0, 0] = k[0, 0, 0] = 1e200  # their product overflows
        with pytest.raises(NonFiniteError, match="attention dec0.self scores"):
            attention(Tensor(q_rows.pack(q)), Tensor(k_rows.pack(k)),
                      Tensor(k_rows.pack(v)), q_rows, k_rows, mask, 2,
                      "dec0.self")


class TestRowLayout:
    def test_pack_and_pad_round_trip(self):
        real = np.array([[True, True, False], [True, False, False]])
        rows = RowLayout(real)
        x = rnd((2, 3, 4), seed=5)
        packed = rows.pack(x)
        assert np.array_equal(packed, x[real])  # row-major (b, t) order
        padded = rows.pad(packed)
        assert np.array_equal(padded[real], x[real])
        assert not padded[~real].any()

    def test_dense_layout_is_a_reshape(self):
        rows = RowLayout(np.ones((2, 3), bool))
        x = rnd((6, 4), seed=6)
        assert rows.pad(x).base is x
        assert rows.pack(rows.pad(x)).base is x


class TestAdamW:
    def test_single_step_hand_computed(self):
        # w=1, g=1, lr=0.1, wd=0: bias-corrected update is exactly
        # lr * 1 / (1 + eps), so w' is 0.9 within 1e-6.
        params = {"w": np.array([1.0])}
        state = AdamWState(lr=0.1, weight_decay=0.0)
        adamw_step(params, {"w": np.array([1.0])}, state)
        assert abs(params["w"][0] - 0.9) < 1e-6
        assert state.t == 1

    def test_zero_grad_no_decay_keeps_weights(self):
        params = {"w": np.array([0.7, -1.3])}
        state = AdamWState(lr=0.1, weight_decay=0.0)
        for _ in range(3):
            adamw_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(params["w"], [0.7, -1.3])

    def test_decoupled_decay_exact(self):
        w0 = np.array([0.5, -2.0])
        params = {"w": w0.copy()}
        state = AdamWState(lr=0.1, weight_decay=0.01)
        adamw_step(params, {"w": np.zeros(2)}, state)
        assert np.allclose(params["w"], w0 - 0.1 * 0.01 * w0, atol=0, rtol=0)

    def test_t_strictly_increases(self):
        params = {"w": np.array([1.0])}
        state = AdamWState()
        for i in range(1, 5):
            adamw_step(params, {"w": np.array([0.1])}, state)
            assert state.t == i

    @pytest.mark.parametrize("lr,weight_decay,grad,bad", [
        (float("inf"), 0.0, 1.0, "a"), (float("nan"), 0.0, 1.0, "a"),
        (0.1, float("nan"), 1.0, "a"), (0.1, 0.0, float("nan"), "w")])
    def test_non_finite_update_names_the_parameter(self, lr, weight_decay,
                                                   grad, bad):
        params = {"a": np.array([1.0]), "w": np.array([1.0, 2.0])}
        state = AdamWState(lr=lr, weight_decay=weight_decay)
        with pytest.raises(NonFiniteError, match=f"parameter '{bad}' after"):
            adamw_step(params, {"a": np.zeros(1), "w": np.full(2, grad)},
                       state)

    def test_shape_mismatch_rejected(self):
        state = AdamWState()
        with pytest.raises(ShapeError):
            adamw_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, state)


class TestGradCheckHarness:
    def test_linear_loss(self):
        params = {"w": Tensor(rnd((6,), seed=5), requires_grad=True)}
        err = finite_diff_grad_check(lambda p: tsum(p["w"]), params)
        assert err < 1e-10

    def test_quadratic_at_three(self):
        params = {"w": Tensor(np.full(4, 3.0), requires_grad=True)}
        err = finite_diff_grad_check(lambda p: tsum(mul(p["w"], p["w"])),
                                     params)
        assert err < 1e-9

    def test_nondeterministic_loss_detected(self):
        state = {"n": 0}

        def noisy(params):
            state["n"] += 1
            return mul(tsum(params["w"]), float(state["n"]))

        params = {"w": Tensor(rnd((3,)), requires_grad=True)}
        with pytest.raises(CodemixError):
            finite_diff_grad_check(noisy, params)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).standard_normal(50)
        b = make_rng(123).standard_normal(50)
        assert np.array_equal(a, b)

    def test_spawn_is_deterministic(self):
        a = make_rng(7).spawn(3)[1].integers(0, 1000, 10)
        b = make_rng(7).spawn(3)[1].integers(0, 1000, 10)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_bad_seed_is_data_error(self, seed):
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            make_rng(seed)

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(make_rng(np.int64(5)).integers(0, 9, 4),
                              make_rng(5).integers(0, 9, 4))


class TestDropout:
    def test_zero_probability_is_identity(self):
        x = rnd((4, 4))
        keep = dropout_mask(0.0, make_rng(0), RowLayout(np.ones((2, 2), bool)),
                            x)
        assert np.array_equal(x * keep, x)

    def test_inverted_scaling_preserves_mean(self):
        x = np.ones((200, 200))
        out = x * dropout_mask(0.3, make_rng(1),
                               RowLayout(np.ones((20, 10), bool)), x)
        assert abs(out.mean() - 1.0) < 0.02

    def test_packed_rows_keep_the_padded_block_mask(self):
        real = np.array([[True, True, False], [True, False, False]])
        x = rnd((3, 4), seed=7)
        out = x * dropout_mask(0.5, make_rng(2), RowLayout(real), x)
        keep = (make_rng(2).random((2, 3, 4)) >= 0.5) / 0.5
        assert np.array_equal(out, x * keep[real])
