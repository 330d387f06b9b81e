"""Named mutants of the library, applied in process by ``monkeypatch``.

Each test first runs the real code on a valid input, then swaps in one
plausible bug and asserts that the internal guard or the law meant to catch
it rejects the same input, with its own message or witness."""

import pytest

from relcell import (
    EMPTY,
    ArrowSquare,
    CellComplex,
    CellComplexError,
    DeltaComplex,
    DeltaError,
    Factorizer,
    FillerTable,
    InvariantError,
    SimplicialMap,
    Stratum,
    body,
    check_awfs_laws,
    compose,
    compose_complexes,
    enumerate_homs,
    free_complex,
    generator_complex,
    identity_map,
    k_of_square,
    mec,
    solve_lifting,
    standard_simplex,
    trivial_complex,
    u_of_complex,
)
from relcell import cellcx, lifting, soa
from relcell.strata import _ID, _facets
from relcell.cli import builtin_fixtures
from conftest import (awfs_lifts, bigon, boundary_inclusion, checked_complex,
                      fold_map, rebuilt_map)


def test_fill_that_skips_its_target_check_is_caught(monkeypatch):
    # the vertex cell over "1.0" of the identity on two points; a filler
    # chosen by its faces alone is the first vertex, "0.0"
    two = fold_map().dom
    c = generator_complex(0)
    square = (SimplicialMap(c.boundary, two, {}),
              SimplicialMap(c.body, two, {"cell0": "1.0"}))
    ft = FillerTable(identity_map(two))
    assert solve_lifting(c, ft, square).assign["cell0"] == "1.0"

    def fill_by_faces(self, dim, target, images):
        faces = _facets(dim)(images) if dim else ()
        dom = self.p.dom
        return next(e for e in dom.simplices[dim] if dom.faces_of(e) == faces)

    monkeypatch.setattr(lifting.FillerTable, "_fill", fill_by_faces)
    with pytest.raises(InvariantError,
                       match="^lift does not project to the given map$"):
        solve_lifting(c, ft, square)


def test_cell_index_without_faces_is_caught(monkeypatch):
    # Kf of the boundary of an edge glues three cells over the edge "01",
    # with three different pairs of facets: keyed by target, they collide
    assert free_complex(boundary_inclusion(1)).cell_over("0", ())

    def index_by_target(kf, ef):
        index = {(ef.assign[c], ()): c for c in kf._cell_stage}
        return index if len(index) == len(kf._cell_stage) else None

    monkeypatch.setattr(soa, "cell_index", index_by_target)
    with pytest.raises(InvariantError, match="^two free cells share a "
                       "target and faces; internal invariant violated$"):
        free_complex(boundary_inclusion(1)).cell_over("0", ())


def test_complex_equality_by_faces_alone_is_caught(monkeypatch):
    # two points and one point have the same (empty) faces
    fold = fold_map()
    two, pt = fold.dom, fold.cod
    with pytest.raises(DeltaError, match="^map must land in the top stage"):
        mec(identity_map(two), [pt])

    def equal_faces(self, other):
        return self is other or (
            isinstance(other, DeltaComplex) and self.faces == other.faces)

    monkeypatch.setattr(DeltaComplex, "__eq__", equal_faces)
    with pytest.raises(InvariantError,
                       match="^image not contained in the top stage$"):
        mec(identity_map(two), [pt])


def test_wrong_comultiplication_fails_coassociativity_alone(monkeypatch):
    # δ at U(Kf) replaced by another map with the same endpoints: of the
    # nine laws only coassociativity reads δ there
    f = fold_map()
    fz = Factorizer()
    square = ArrowSquare(top=identity_map(f.dom), bottom=identity_map(f.cod),
                         left=f, right=f)
    assert check_awfs_laws(f, [square], factorizer=fz)["all_pass"]
    fr = fz.k(f)
    lf = u_of_complex(fr.kf)
    real = soa.comonad_comult
    d = real(lf, fz)
    wrong = next(h for h in enumerate_homs(d.dom, d.cod, limit=2) if h != d)

    def comult(g, factorizer):
        return wrong if g == lf else real(g, factorizer)

    monkeypatch.setattr(soa, "comonad_comult", comult)
    rep = check_awfs_laws(f, [square], factorizer=fz)
    assert [law for law, ok in rep["laws"].items() if not ok] == \
        ["comonad_coassoc"]
    delta = real(f, fz)
    fru = fz.k(lf)
    kdelta = k_of_square(identity_map(f.dom), delta, fru,
                         fz.k(u_of_complex(fru.kf)))
    assert rep["witnesses"] == {"comonad_coassoc": {
        "lhs": sorted(compose(wrong, delta).assign.items()),
        "rhs": sorted(compose(kdelta, delta).assign.items())}}


def _laws_with(monkeypatch, name, f):
    """The law report for f once the ``soa`` function ``name`` is
    replaced at ``ef`` only by another map with the same endpoints, the
    first of ``enumerate_homs`` that differs, after the real one passed
    every law; then the factorizer and the replacement."""
    fz = Factorizer()
    square = ArrowSquare(top=identity_map(f.dom), bottom=identity_map(f.cod),
                         left=f, right=f)
    assert check_awfs_laws(f, [square], factorizer=fz)["all_pass"]
    ef = fz.k(f).ef
    real = getattr(soa, name)
    d = real(ef, fz)
    wrong = next(h for h in enumerate_homs(d.dom, d.cod, limit=2) if h != d)

    def replaced(g, factorizer):
        return wrong if g == ef else real(g, factorizer)

    monkeypatch.setattr(soa, name, replaced)
    return check_awfs_laws(f, [square], factorizer=fz), fz, wrong


MAPS = {"fold": fold_map(), "boundary-1": boundary_inclusion(1)}


@pytest.mark.parametrize("f", MAPS.values(), ids=MAPS.keys())
def test_wrong_multiplication_at_ef_fails_associativity_alone(
        monkeypatch, f):
    # μ at Ef replaced: of the nine laws only associativity reads it
    real = soa.monad_mult
    rep, fz, wrong = _laws_with(monkeypatch, "monad_mult", f)
    assert [law for law, ok in rep["laws"].items() if not ok] == \
        ["monad_assoc"]
    fr2 = fz.k(fz.k(f).ef)
    mu = real(f, fz)
    kmu = k_of_square(mu, identity_map(f.cod), fz.k(fr2.ef), fr2)
    assert rep["witnesses"] == {"monad_assoc": {
        "lhs": sorted(compose(mu, wrong).assign.items()),
        "rhs": sorted(compose(mu, kmu).assign.items())}}


@pytest.mark.parametrize("f", MAPS.values(), ids=MAPS.keys())
def test_wrong_comultiplication_at_ef_fails_distributivity_alone(
        monkeypatch, f):
    # δ at Ef replaced: of the nine laws only distributivity reads it
    rep, fz, wrong = _laws_with(monkeypatch, "comonad_comult", f)
    assert [law for law, ok in rep["laws"].items() if not ok] == \
        ["distributivity"]
    fr = fz.k(f)
    lf = u_of_complex(fr.kf)
    fru = fz.k(lf)
    delta = soa.comonad_comult(f, fz)  # the real δ: f is not ef
    mu = soa.monad_mult(f, fz)
    kdm = k_of_square(delta, mu, fz.k(u_of_complex(fz.k(fr.ef).kf)),
                      fz.k(fru.ef))
    rhs = compose(fru.ef, compose(soa.monad_mult(lf, fz),
                                  compose(kdm, wrong)))
    assert rep["witnesses"] == {"distributivity": {
        "lhs": sorted(compose(fru.ef, compose(delta, mu)).assign.items()),
        "rhs": sorted(rhs.assign.items())}}


def test_factorizer_answers_each_map_with_its_own_result():
    # the cache is keyed by the map: different maps get their own result,
    # though they share a codomain (out of the empty complex) or an
    # assignment (the identities of two bigons), and an equal map rebuilt
    # from new objects gets the very result of the first
    fz = Factorizer()
    maps = [SimplicialMap(EMPTY, standard_simplex(k), {}) for k in (1, 2)]
    maps += [identity_map(bigon("b", "a")), identity_map(bigon("a", "b"))]
    maps += [f for _, f in builtin_fixtures()]
    results = [fz.k(g) for g in maps]
    for g, fr in zip(maps, results):
        assert fr.input == g
        assert fz.k(rebuilt_map(g)) is fr
    assert len(set(map(id, results))) == len(maps)


def _k_keyed_by(key_of):
    """A ``Factorizer.k`` that caches by ``key_of(f)`` instead of f."""
    def k(self, f):
        fr = self._cache.get(key_of(f))
        if fr is None:
            fr = self._cache[key_of(f)] = free_complex(f, self.safety_cap)
        return fr
    return k


@pytest.mark.parametrize("key_of, error, message", [
    # ef shares f's codomain, so K(ef) is Kf, whose boundary is not the
    # body of Kf: the composite complex of ``monad_mult`` is rejected
    (lambda f: f.cod, CellComplexError,
     "^boundary of the second complex must equal the body of the first$"),
    # the free inclusions of one base into two bodies share an
    # assignment, so ``unit`` transposes against the other body's result
    (lambda f: tuple(sorted(f.assign.items())), DeltaError,
     "^transpose: body map endpoints do not match$"),
], ids=["codomain", "assignment"])
def test_factorizer_keyed_by_part_of_the_map_is_caught(
        monkeypatch, key_of, error, message):
    fixtures = [f for _, f in builtin_fixtures()]
    for f in fixtures:
        assert check_awfs_laws(f, [], factorizer=Factorizer())["all_pass"]
    monkeypatch.setattr(Factorizer, "k", _k_keyed_by(key_of))
    for f in fixtures:
        with pytest.raises(error, match=message):
            check_awfs_laws(f, [], factorizer=Factorizer())


def test_lift_against_the_other_tables_algebra_is_caught():
    # criterion 10 with each s_T solved from the other total table: the
    # lift depends on the table, and the criterion's equality tells the two
    # apart (148 of its 600 pairs differ, the first on its second square)
    fz = Factorizer()
    assert all(lift == canonical for lift, canonical in awfs_lifts(fz, 2))
    assert any(lift != canonical
               for lift, canonical in awfs_lifts(fz, 300, swap=True))


def test_assemble_that_drops_properness_is_caught(monkeypatch):
    # ``assemble`` places each cell at the least stage its attach allows,
    # by ``_place``, which ``compose_complexes`` calls directly, and its
    # output is owned; one that glues only the first placeable cell each
    # round places the others late, and the checked rebuild of what it
    # returns (the test of owned values in test_cellcx.py) fails
    kf = free_complex(boundary_inclusion(1)).kf  # 3 cells at each stage
    stacked = compose_complexes(kf, trivial_complex(kf.body))
    assert checked_complex(stacked) == stacked == kf

    def one_cell_per_stage(boundary, cells):
        remaining, strata, current = sorted(cells, key=_ID), [], boundary
        while remaining:
            ids = current.id_set
            first = next(c for c in remaining if ids.issuperset(c[2]))
            strata.append(Stratum._owning(current, [first]))
            current = body(strata[-1])
            remaining.remove(first)
        return CellComplex._owning(boundary, strata)

    monkeypatch.setattr(cellcx, "_place", one_cell_per_stage)
    late = compose_complexes(kf, trivial_complex(kf.body))
    assert late.height == 6
    with pytest.raises(CellComplexError, match="sequence is improper$"):
        checked_complex(late)
