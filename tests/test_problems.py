"""Deterministic problem generation and the documented PRNG."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from cglens import (
    F64,
    RATIONAL,
    LinalgError,
    ProblemSpec,
    exact_minimizer,
    generate_problem,
)
import cglens.problems
from cglens.linalg import scalar_token
from cglens.problems import SplitMix64


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
        for condition in (0.5, math.inf, math.nan):
            with pytest.raises(LinalgError):
                ProblemSpec(kind="rand_spd", n=4, condition=condition, seed=1)


    @pytest.mark.parametrize("kind", ["diag", "laplacian1d"])
    @pytest.mark.parametrize("condition, seed", [(10, None), (None, 0), (math.nan, 5), (-3, -1)])
    def test_only_rand_spd_takes_condition_or_seed(self, kind, condition, seed):
        with pytest.raises(LinalgError, match="rand_spd only"):
            ProblemSpec(kind=kind, n=4, condition=condition, seed=seed)


class TestGeneratedProblems:
    @pytest.mark.parametrize("backend, expected", [
        (F64, [["9.2944", "-2.4192"], ["-2.4192", "1.7056000000000002"]]),
        (RATIONAL, [["5809/625", "-1512/625"], ["-1512/625", "1066/625"]]),
    ])
    def test_an_all_zero_reflection_vector_gets_a_unit_entry(self, monkeypatch, backend,
                                                             expected):
        # Seed 4 draws v = 0 for the first reflection of an n = 2 matrix; a
        # drawn entry of v (here the second) is set to 1 before it reflects.
        reflections = []
        original = cglens.problems._reflect

        def recorded(M, v):
            reflections.append(list(v))
            return original(M, v)

        monkeypatch.setattr(cglens.problems, "_reflect", recorded)
        P = generate_problem(ProblemSpec(kind="rand_spd", n=2, condition=10, seed=4), backend)
        assert reflections == [[0, 1], [-4, 3], [0, 2]]
        assert [[scalar_token(x) for x in row] for row in P.H] == expected

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

    @pytest.mark.parametrize(
        "spec, backend, digest",
        [
            (ProblemSpec(kind="rand_spd", n=200, condition=1e4, seed=3), F64, "b680de8d244416be"),
            (ProblemSpec(kind="rand_spd", n=17, condition=3.0, seed=0), F64, "0242c794f8b49757"),
            (ProblemSpec(kind="laplacian1d", n=180), F64, "92b73ad3fdecb60d"),
            (ProblemSpec(kind="diag", n=7), F64, "7fa5a54afb388382"),
            (ProblemSpec(kind="rand_spd", n=14, condition=11, seed=5), RATIONAL,
             "25deddd5afb7f755"),
        ],
    )
    def test_generated_bits_are_pinned(self, spec, backend, digest):
        # Digests of the problems as first published: any change to the
        # generator's arithmetic or its order of operations shows here.
        P = generate_problem(spec, backend)
        if backend.exact:
            data = "".join(",".join(map(str, a)) + ";" for a in (P.H.ravel(), P.c, P.x0)).encode()
        else:
            data = P.H.tobytes() + P.c.tobytes() + P.x0.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest
