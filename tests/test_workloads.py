import numpy as np
import pytest
from scipy import stats

from lioncomm.errors import ConfigError
from lioncomm.optimizer import LionHyper, lion_step, WorkerState
from lioncomm.quant import lp_mean_norm, INF
from lioncomm.workloads import (MlpModel, NoiseSpec, init_mlp, mlp_forward,
                                noisy_client_grads, sample_alpha_stable,
                                synth_update_vectors, teacher_student_batch)


class TestAlphaStableSampler:
    def test_alpha2_is_gaussian(self):
        spec = NoiseSpec(levy_alpha=2.0, scale=1.0, per_client_seed=0)
        x = sample_alpha_stable(spec, 100_000, np.random.default_rng(0))
        # alpha=2 stable with unit scale is N(0, 2)
        stat, _ = stats.kstest(x, "norm", args=(0.0, np.sqrt(2.0)))
        assert stat < 0.01

    def test_alpha1_is_cauchy(self):
        gamma = 3.0
        spec = NoiseSpec(levy_alpha=1.0, scale=gamma, per_client_seed=0)
        x = sample_alpha_stable(spec, 200_000, np.random.default_rng(1))
        q75, q25 = np.percentile(x, [75, 25])
        assert (q75 - q25) == pytest.approx(2 * gamma, rel=0.02)

    def test_alpha_half_has_diverging_variance(self):
        spec = NoiseSpec(levy_alpha=0.5, scale=1.0, per_client_seed=0)
        rng = np.random.default_rng(2)
        variances = [np.var(sample_alpha_stable(spec, n, rng))
                     for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
        assert variances[-1] > 100 * variances[0]
        x = sample_alpha_stable(spec, 10 ** 5, rng)
        med = np.median(np.abs(x))
        assert np.isfinite(med) and med > 0

    def test_scale_is_linear(self):
        for gamma in (0.5, 2.0):
            a = sample_alpha_stable(
                NoiseSpec(1.5, gamma, 0), 100, np.random.default_rng(3))
            b = sample_alpha_stable(
                NoiseSpec(1.5, 1.0, 0), 100, np.random.default_rng(3))
            assert np.allclose(a, gamma * b)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(levy_alpha=0.0, scale=1.0, per_client_seed=0)
        with pytest.raises(ConfigError):
            NoiseSpec(levy_alpha=2.5, scale=1.0, per_client_seed=0)


class TestTeacherStudent:
    def setup_method(self):
        self.model = MlpModel()
        rng = np.random.default_rng(0)
        self.teacher = init_mlp(self.model, rng)
        self.student = init_mlp(self.model, rng)

    def test_student_equals_teacher_gives_zero(self):
        loss, grads = teacher_student_batch(
            self.teacher, self.teacher, self.model, 32,
            np.random.default_rng(1))
        assert loss == 0.0
        assert all(not g.any() for g in grads.values())

    def test_loss_invariant_to_batch_permutation(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(32, self.model.in_dim))
        y = mlp_forward(self.teacher, self.model, x)
        pred = mlp_forward(self.student, self.model, x)
        loss = np.mean((pred - y) ** 2)
        perm = rng.permutation(32)
        loss_p = np.mean((pred[perm] - y[perm]) ** 2)
        assert loss == pytest.approx(loss_p)

    @pytest.mark.parametrize("trained", [False, True])
    def test_gradients_match_finite_differences(self, trained):
        student = self.student
        if trained:
            h = LionHyper(beta1=0.9, beta2=0.99, lr=1e-3, weight_decay=0.0)
            state = WorkerState.initial(student)
            for t in range(100):
                _, g = teacher_student_batch(
                    state.params, self.teacher, self.model, 64,
                    np.random.default_rng(100 + t))
                state = lion_step(state, g, h)
            student = state.params

        batch_seed = 12345
        _, grads = teacher_student_batch(
            student, self.teacher, self.model, 64,
            np.random.default_rng(batch_seed))

        def loss_at(params):
            l, _ = teacher_student_batch(
                params, self.teacher, self.model, 64,
                np.random.default_rng(batch_seed))
            return l

        eps = 1e-6
        rng = np.random.default_rng(3)
        for name, g in grads.items():
            idx = rng.choice(g.size, size=5, replace=False)
            for i in idx:
                p = {k: v.copy() for k, v in student.items()}
                p[name][i] += eps
                up = loss_at(p)
                p[name][i] -= 2 * eps
                dn = loss_at(p)
                fd = (up - dn) / (2 * eps)
                denom = max(abs(fd), abs(g[i]), 1e-8)
                assert abs(fd - g[i]) / denom < 1e-4

    def test_layer_names_are_stable(self):
        assert set(self.student) == {"input", "head"}
        sizes = self.model.layer_sizes
        assert sizes["input"] == 16 * 32 + 32
        assert sizes["head"] == 32 * 1 + 1


class TestClientNoise:
    # A rank's noise stream is keyed (per_client_seed, rank) once per run
    # and advanced by each step's draw.
    def test_zero_scale_is_identity(self):
        clean = {"w": np.arange(4.0)}
        spec = NoiseSpec(levy_alpha=0.5, scale=0.0, per_client_seed=0)
        rng = np.random.default_rng([0, 2])
        before = rng.bit_generator.state
        got = noisy_client_grads(clean, spec, rng)
        assert np.array_equal(got["w"], clean["w"])
        assert got["w"] is not clean["w"]
        assert rng.bit_generator.state == before  # nothing drawn

    def test_deterministic_per_key(self):
        clean = {"w": np.zeros(100)}
        spec = NoiseSpec(levy_alpha=0.5, scale=1.0, per_client_seed=5)
        rng = np.random.default_rng([5, 1])
        a = noisy_client_grads(clean, spec, rng)
        b = noisy_client_grads(clean, spec, np.random.default_rng([5, 1]))
        assert np.array_equal(a["w"], b["w"])
        c = noisy_client_grads(clean, spec, rng)  # the stream's next step
        assert not np.array_equal(a["w"], c["w"])

    def test_clients_are_independent(self):
        n = 100_000
        spec = NoiseSpec(levy_alpha=2.0, scale=1.0, per_client_seed=9)
        a = sample_alpha_stable(spec, n, np.random.default_rng([9, 0]))
        b = sample_alpha_stable(spec, n, np.random.default_rng([9, 1]))
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.02

    def test_one_draw_is_split_over_the_layers_in_sorted_name_order(self):
        clean = {"input": np.arange(6.0), "head": np.ones(4)}
        spec = NoiseSpec(levy_alpha=0.5, scale=1e-2)
        got = noisy_client_grads(clean, spec, np.random.default_rng([3, 0]))
        noise = sample_alpha_stable(spec, 10, np.random.default_rng([3, 0]))
        assert np.array_equal(got["head"], clean["head"] + noise[:4])
        assert np.array_equal(got["input"], clean["input"] + noise[4:])


class TestSynthUpdateVectors:
    def test_laplace_kurtosis(self):
        x = synth_update_vectors("laplace", 10 ** 5,
                                 np.random.default_rng(0))
        assert stats.kurtosis(x) == pytest.approx(3.0, abs=0.3)

    def test_gaussian_kurtosis(self):
        x = synth_update_vectors("gaussian", 10 ** 5,
                                 np.random.default_rng(1))
        assert stats.kurtosis(x) == pytest.approx(0.0, abs=0.2)

    def test_outlier_dominates_max_norm(self):
        x = synth_update_vectors("laplace_with_outliers", 10 ** 5,
                                 np.random.default_rng(2),
                                 outlier_count=1, outlier_ratio=1e6)
        assert lp_mean_norm(x, INF) / lp_mean_norm(x, 1.0) > 1e4

    def test_unknown_dist_rejected(self):
        with pytest.raises(ConfigError):
            synth_update_vectors("uniform", 10, np.random.default_rng(0))
