import random
from fractions import Fraction

import pytest

from nilsect import (
    GeneratorSystem,
    H3Elem,
    OrbitInstance,
    UnipotentMatrix,
    UnsupportedInstance,
    Verdict,
    bfs_oracle,
    bracket,
    decide_easy,
    decide_hard,
    decide_orbit,
    delta_table,
    h3_project,
    log_unipotent,
    product_of_word,
    reduce_to_identity,
)

from nilsect import orbit as orbit_module
from nilsect.orbit import _interleavings

from conftest import h3

X, Y = h3(1, 0, 0), h3(0, 1, 0)
IDENT = UnipotentMatrix.identity(3)


def gsys(*mats):
    return GeneratorSystem(list(mats))


def orbit(T, S, G, H, **opts):
    return OrbitInstance(T, S, G, H, options=opts or None)


def verified(inst, decision):
    v, w = decision.witnesses
    left = inst.T.matrix() * product_of_word(inst.G, v)
    right = inst.S.matrix() * product_of_word(inst.H, w)
    return left == right == decision.common_element


def test_h3_projections():
    lx, ly = log_unipotent(X), log_unipotent(Y)
    assert h3_project(lx, "phi") == (1, 0)
    assert h3_project(lx, "pi") == 0
    br = bracket(lx, ly)
    assert h3_project(br, "phi") == (0, 0)
    assert h3_project(br, "pi") == 1
    with pytest.raises(ValueError):
        h3_project(log_unipotent(UnipotentMatrix.identity(4)), "phi")


def test_h3_elem_arithmetic():
    a = H3Elem(1, 2, 3)
    assert a * a.inverse() == H3Elem.identity()
    assert H3Elem.from_matrix(a.matrix()) == a
    assert (H3Elem(1, 0, 0) * H3Elem(0, 1, 0)).c == 1


def test_reduce_to_identity():
    t = H3Elem(1, 0, 0)
    s = t * H3Elem(0, 1, 0)
    inst = orbit(t, s, gsys(X), gsys(Y))
    red = reduce_to_identity(inst)
    assert red.T == H3Elem.identity()
    assert red.S == H3Elem(0, 1, 0)
    # verdict preserved under reduction
    for t2, s2 in [(H3Elem(1, 1, 0), H3Elem(1, 1, 1)), (H3Elem(0, 0, 2), H3Elem(0, 0, 2))]:
        a = decide_orbit(orbit(t2, s2, gsys(X, Y), gsys(X, Y)))
        b = decide_orbit(
            orbit(H3Elem.identity(), t2.inverse() * s2, gsys(X, Y), gsys(X, Y))
        )
        assert a.verdict == b.verdict


def test_easy_same_ray_nonempty():
    inst = orbit(H3Elem.identity(), H3Elem(1, 0, 0), gsys(X), gsys(X))
    d = decide_orbit(inst)
    assert d.verdict is Verdict.NONEMPTY
    assert d.details["case"] == "easy"
    assert verified(inst, d)


def test_easy_disjoint_rays_empty():
    inst = orbit(H3Elem.identity(), H3Elem.identity(), gsys(X), gsys(Y))
    d = decide_orbit(inst)
    assert d.verdict is Verdict.EMPTY
    assert d.details["dim"] == 0


def test_easy_with_off_line_letters():
    # no witness here: matching the central entry is impossible
    s = H3Elem(0, 0, 1)
    inst = orbit(H3Elem.identity(), s, gsys(X, Y), gsys(Y))
    d = decide_orbit(inst)
    assert d.details["dim"] == 1
    if d.verdict is Verdict.NONEMPTY:
        assert verified(inst, d)
    # oracle agreement either way
    found = bfs_oracle(inst, 8)
    assert (found is not None) == (d.verdict is Verdict.NONEMPTY)


def test_easy_interleaving_witness():
    # v = y x against w = x shifted by S = y: one off-line letter on the
    # left, none on the right, found through the interleaving search
    inst = orbit(H3Elem.identity(), H3Elem(0, 1, 0), gsys(X, Y), gsys(X))
    d = decide_orbit(inst)
    assert d.details["case"] == "easy"
    assert d.verdict is Verdict.NONEMPTY
    assert verified(inst, d)
    v, w = d.witnesses
    assert len(v) >= 1 and len(w) >= 1


def test_easy_interleaving_deeper_caps():
    # S = y^2 x needs two off-line letters on the left
    s_elem = H3Elem.from_matrix(Y * Y * X)
    inst = orbit(H3Elem.identity(), s_elem, gsys(X, Y), gsys(X))
    d = decide_orbit(inst)
    assert d.details["case"] == "easy"
    found = bfs_oracle(inst, 6)
    assert (found is not None) == (d.verdict is Verdict.NONEMPTY)
    if d.verdict is Verdict.NONEMPTY:
        assert verified(inst, d)


def _interleavings_by_length(letters, caps):
    """Reference: every capped sequence, materialised level by level."""
    levels = [[()]]
    while levels[-1]:
        levels.append(
            [
                seq + (a,)
                for seq in levels[-1]
                for a in letters
                if seq.count(a) < caps[a]
            ]
        )
    return levels[:-1]


def test_interleavings_stream_in_reference_order():
    rng = random.Random(5)
    for _ in range(300):
        letters = rng.sample(range(6), rng.randint(0, 4))
        caps = {a: rng.randint(0, 2) for a in letters}
        levels = _interleavings_by_length(letters, caps)
        assert len(levels) == sum(caps.values()) + 1
        for length, expected in enumerate(levels):
            assert list(_interleavings(letters, caps, length)) == expected
        assert list(_interleavings(letters, caps, len(levels))) == []


def test_hard_central_shift_nonempty():
    G = gsys(X, Y)
    H = gsys(X, Y)
    inst = orbit(H3Elem.identity(), H3Elem(0, 0, 1), G, H)
    d = decide_orbit(inst)
    assert d.details["case"] == "hard"
    assert d.verdict is Verdict.NONEMPTY
    assert verified(inst, d)
    # recounted statistics match the inflated solution targets
    v, w = d.witnesses
    assert delta_table(v) is not None and delta_table(w) is not None


def test_orbit_witness_multiplied_once(monkeypatch):
    # decide_orbit is the one place a witness pair is checked
    calls = []
    real = orbit_module.product_of_word

    def counting(gens, word):
        calls.append(word)
        return real(gens, word)

    monkeypatch.setattr(orbit_module, "product_of_word", counting)
    G = gsys(X, Y)
    d = decide_orbit(orbit(H3Elem.identity(), H3Elem(0, 0, 1), G, G))
    assert d.details["case"] == "hard"
    assert d.verdict is Verdict.NONEMPTY
    assert calls == list(d.witnesses)


def test_hard_half_central_shift_empty():
    G = gsys(X, Y)
    inst = orbit(H3Elem.identity(), H3Elem(0, 0, Fraction(1, 2)), G, G)
    d = decide_orbit(inst)
    assert d.verdict is Verdict.EMPTY


def test_hard_identity_shift_nonempty():
    G = gsys(X, Y)
    d = decide_orbit(orbit(H3Elem.identity(), H3Elem.identity(), G, G))
    assert d.verdict is Verdict.NONEMPTY


def test_parity_obstruction_family():
    # S central with corner k + 1/2 is unreachable: the corner equation
    # needs an odd coefficient difference while the parities force even
    G = gsys(X, Y)
    for k in (0, 1, 2):
        s = H3Elem(0, 0, k + Fraction(1, 2))
        inst = orbit(H3Elem.identity(), s, G, G)
        d = decide_orbit(inst)
        assert d.verdict is Verdict.EMPTY
        assert bfs_oracle(inst, 8) is None


def test_fallback_commutator_membership():
    G = gsys(X, Y, X.inverse(), Y.inverse())
    H = gsys(IDENT)
    inst = orbit(H3Elem.identity(), H3Elem(0, 0, 1), G, H)
    d = decide_orbit(inst)
    assert d.verdict is Verdict.NONEMPTY
    assert d.details["case"] == "fallback"
    assert verified(inst, d)


def test_unsupported_raises_when_fallback_finds_nothing():
    # full plane against an interior ray, with an unreachable target
    G = gsys(X, Y, X.inverse(), Y.inverse())
    H = gsys(IDENT)
    inst = orbit(
        H3Elem.identity(), H3Elem(0, 0, Fraction(1, 2)), G, H, oracle_depth=4
    )
    with pytest.raises(UnsupportedInstance):
        decide_orbit(inst)


def random_h3_elem(rng, bound=2):
    return H3Elem(
        rng.randint(-bound, bound),
        rng.randint(-bound, bound),
        rng.randint(-bound, bound),
    )


def random_system(rng, k, bound=2):
    return GeneratorSystem(
        [random_h3_elem(rng, bound).matrix() for _ in range(k)]
    )


def test_oracle_agreement_sample(rng):
    # small version of the acceptance criterion, mixed cases
    checked = 0
    for _ in range(60):
        inst = orbit(
            random_h3_elem(rng, 1),
            random_h3_elem(rng, 1),
            random_system(rng, rng.randint(1, 2)),
            random_system(rng, rng.randint(1, 2)),
        )
        try:
            d = decide_orbit(inst)
        except UnsupportedInstance:
            continue
        checked += 1
        found = bfs_oracle(inst, 6)
        if d.verdict is Verdict.EMPTY:
            assert found is None
        else:
            assert verified(inst, d)
    assert checked >= 40


def test_membership_specialization(rng):
    # H = {I}, T = I decides membership of S in the semigroup of G
    for _ in range(25):
        g_sys = random_system(rng, rng.randint(1, 2), bound=1)
        s = random_h3_elem(rng, 1)
        inst = orbit(H3Elem.identity(), s, g_sys, gsys(IDENT))
        try:
            d = decide_orbit(inst)
        except UnsupportedInstance:
            continue
        found = bfs_oracle(inst, 6)
        if found is not None:
            assert d.verdict is Verdict.NONEMPTY
        if d.verdict is Verdict.EMPTY:
            assert found is None


def test_decide_easy_requires_low_dimension():
    with pytest.raises(ValueError):
        decide_easy(H3Elem.identity(), gsys(X, Y), gsys(X, Y))
