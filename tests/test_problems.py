"""Deterministic problem generation and the documented PRNG."""

from __future__ import annotations

import numpy as np
import pytest

from cglens import (
    F64,
    RATIONAL,
    LinalgError,
    ProblemSpec,
    SplitMix64,
    exact_minimizer,
    generate_problem,
)


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        # published outputs of splitmix64(0)
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_determinism(self):
        a = SplitMix64(1234567)
        b = SplitMix64(1234567)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_unit_float_range(self):
        rng = SplitMix64(99)
        values = [rng.unit_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_int_between_inclusive(self):
        rng = SplitMix64(7)
        values = {rng.int_between(2, 4) for _ in range(200)}
        assert values == {2, 3, 4}

    def test_empty_range_rejected(self):
        with pytest.raises(LinalgError):
            SplitMix64(0).int_between(3, 2)


class TestProblemSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(LinalgError):
            ProblemSpec(kind="hilbert", n=4)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(LinalgError):
            ProblemSpec(kind="diag", n=0)

    def test_rand_spd_requires_seed_and_condition(self):
        with pytest.raises(LinalgError):
            ProblemSpec(kind="rand_spd", n=4, condition=10)
        with pytest.raises(LinalgError):
            ProblemSpec(kind="rand_spd", n=4, seed=1)
        with pytest.raises(LinalgError):
            ProblemSpec(kind="rand_spd", n=4, condition=0.5, seed=1)


class TestGeneratedProblems:
    def test_diag_matches_worked_problem(self):
        P = generate_problem(ProblemSpec(kind="diag", n=2), RATIONAL)
        assert [list(row) for row in P.H] == [[1, 0], [0, 2]]
        assert list(P.c) == [-1, -2]
        assert list(P.x0) == [0, 0]

    def test_laplacian_stencil(self):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=3), RATIONAL)
        assert [list(row) for row in P.H] == [
            [2, -1, 0],
            [-1, 2, -1],
            [0, -1, 2],
        ]

    def test_solution_is_all_ones(self):
        for kind, cond, seed in (("diag", None, None), ("laplacian1d", None, None),
                                 ("rand_spd", 12, 5)):
            P = generate_problem(
                ProblemSpec(kind=kind, n=6, condition=cond, seed=seed), RATIONAL
            )
            assert list(exact_minimizer(P)) == [1] * 6

    def test_rand_spd_deterministic(self):
        spec = ProblemSpec(kind="rand_spd", n=8, condition=1e3, seed=42)
        A = generate_problem(spec)
        B = generate_problem(spec)
        assert [list(r) for r in A.H] == [list(r) for r in B.H]

    def test_rand_spd_seed_changes_matrix(self):
        A = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=1e3, seed=42))
        B = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=1e3, seed=43))
        assert [list(r) for r in A.H] != [list(r) for r in B.H]

    def test_rand_spd_condition_number(self):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=1e4, seed=1))
        eigenvalues = np.linalg.eigvalsh(np.array(P.H, dtype=float))
        assert eigenvalues[-1] / eigenvalues[0] == pytest.approx(1e4, rel=1e-9)

    def test_rand_spd_rational_is_exactly_symmetric(self):
        P = generate_problem(
            ProblemSpec(kind="rand_spd", n=6, condition=20, seed=9), RATIONAL
        )
        for i in range(6):
            for j in range(6):
                assert P.H[i, j] == P.H[j, i]

    def test_labels_identify_instances(self):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=100, seed=3))
        assert P.label == "rand_spd-n8-cond100-seed3-f64"
