"""Template evaluation on ints against the per-term ``Fraction`` loop, the
skew searches against their exhaustive per-candidate loops, and the int-row
presentation against its ``RationalMatrix`` form.

The oracles below are the evaluation and the searches as they were before
path products moved to ints: every term of every block is a chain of
``RationalMatrix`` products, and every (permutation, sign) candidate is
built as a template and evaluated afresh.  The presentation oracle is
``minimal_presentation`` as it was before it ran on int rows: path images
are ``Fraction`` vectors and every kernel is a ``RationalMatrix``.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from symquiv import families, presentation, representation, semiinvariant
from symquiv.io import descriptor_to_json
from symquiv.linalg import RationalMatrix, column_space_complement
from symquiv.presentation import (PathMatrix, _basis, _columns, _shift, evaluate_template,
                                  minimal_presentation)
from symquiv.quiver import DimensionVector, null_root
from symquiv.representation import Representation, random_structured
from symquiv.semiinvariant import (_is_skew, _SeededPoints, _skew_normalize_pencil,
                                   evaluate_all, generators_tame, skew_normalize_template)
from symquiv.symmetric import ORTHOGONAL, SYMPLECTIC
from symquiv.tame import (Pencil, admissible_arcs, canonical_decomposition, pencil_templates,
                          pf_singleton_template, realize_interval, tau_orbits)

FAMILIES = [families.symmetric_a(4), families.symmetric_a(5), families.a201(2, 2),
            families.a202(2, 2), families.a02(2, 2), families.a11(2, 2),
            families.a00(2), families.d10(3), families.d01(3)]
TAME = FAMILIES[2:]


# -- oracles -------------------------------------------------------------------

def oracle_evaluate(t: PathMatrix, w: Representation) -> RationalMatrix:
    """Block (r, c) as the sum over its terms of coeff times the product of
    the arrow matrices along the path, all in ``Fraction`` arithmetic."""
    heights = [w.dim[v] for v in t.rows]
    widths = [w.dim[v] for v in t.cols]
    if not heights or not widths:
        return RationalMatrix.zero(sum(heights), sum(widths))
    blocks = []
    for r, qv in enumerate(t.rows):
        row = []
        for c, pv in enumerate(t.cols):
            block = RationalMatrix.zero(w.dim[qv], w.dim[pv])
            for path, coeff in t.entries[r][c].items():
                if path:
                    m = w.matrices[path[0]]
                    for name in path[1:]:
                        m = w.matrices[name] * m
                else:
                    m = RationalMatrix.identity(w.dim[pv])
                block = block + m.scale(coeff)
            row.append(block)
        blocks.append(row)
    return RationalMatrix.block(blocks)


def oracle_top(q, dim, mats):
    out = []
    for x in q.vertices:
        if not dim[x]:
            continue
        images = [mats[a.name] for a in sorted(q.arrows_into(x), key=lambda a: a.name)
                  if dim[a.tail]]
        free = (column_space_complement(RationalMatrix.block([images]))[1] if images
                else range(dim[x]))
        out.extend((x, i) for i in free)
    return out


def oracle_minimal_presentation(m: Representation) -> PathMatrix:
    q = m.quiver
    gens = oracle_top(q, m.dim, m.matrices)
    p0 = _basis(q, [x for x, _ in gens])
    images = {}
    for c, path in sorted((item for z in q.vertices for item in p0[z]),
                          key=lambda item: len(item[1])):
        if path:
            images[c, path] = m.matrices[path[-1]].apply(images[c, path[:-1]])
        else:
            x, i = gens[c]
            images[c, path] = [Fraction(int(k == i)) for k in range(m.dim[x])]
    kernel, free = {}, {}
    for z in q.vertices:
        rows = [images[item] for item in p0[z]]
        kernel[z], free[z] = column_space_complement(
            RationalMatrix(len(rows), m.dim[z], [x for row in rows for x in row]))
    karrows = {}
    for a in q.arrows:
        back = {j: i for i, j in enumerate(_shift(p0, a))}
        karrows[a.name] = _columns(kernel[a.tail],
                                   [back.get(j) for j in free[a.head]]).transpose()
    rows, entries = [], []
    for y, k in oracle_top(q, {z: len(free[z]) for z in q.vertices}, karrows):
        entry = [{} for _ in gens]
        for (c, path), coeff in zip(p0[y], kernel[y].row(k)):
            if coeff:
                entry[c][path] = coeff
        rows.append(y)
        entries.append(entry)
    return PathMatrix(q, rows, [x for x, _ in gens], entries)


def oracle_skew_template(t, witnesses):
    rows = len(t.rows)
    if rows > 4:
        return None
    full0 = witnesses[0].full()
    size = sum(full0.dim[v] for v in t.rows)
    if size != sum(full0.dim[v] for v in t.cols) or size % 2:
        return None
    for perm in permutations(range(rows)):
        for signs in product((1, -1), repeat=rows):
            cand = PathMatrix(t.quiver, [t.rows[i] for i in perm], list(t.cols),
                              [[{p: Fraction(s) * v for p, v in e.items()}
                                for e in t.entries[i]]
                               for i, s in zip(perm, signs)])
            if all(oracle_evaluate(cand, witnesses[k].full()).is_skew_symmetric()
                   for k in range(len(witnesses))):
                return cand
    return None


def oracle_skew_pencil(pen, witnesses):
    for signs in product((1, -1), repeat=len(pen.rows)):
        cand = dataclasses.replace(pen, signs=signs)
        if all(oracle_evaluate(cand.combine(Fraction(t), Fraction(1)),
                               witnesses[k].full()).is_skew_symmetric()
               for k in (0, 1) for t in (2, 3)):
            return cand
    return None


# -- inputs ---------------------------------------------------------------------

def rational_rep(q, rng, dims=(0, 1, 2, 3)) -> Representation:
    """Arrow matrices with entries p/q, |p| <= 9 and 1 <= q <= 6, at random
    dimensions that include zero."""
    dim = DimensionVector({v: rng.choice(dims) for v in q.vertices})
    return Representation(q, dim, {
        a.name: RationalMatrix(dim[a.head], dim[a.tail],
                               [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                for _ in range(dim[a.head] * dim[a.tail])])
        for a in q.arrows})


def random_template(q, rng) -> PathMatrix:
    rows = [rng.choice(q.vertices) for _ in range(rng.randint(0, 3))]
    cols = [rng.choice(q.vertices) for _ in range(rng.randint(0, 3))]
    entries = []
    for y in rows:
        entries.append([])
        for x in cols:
            paths = q.paths_from(x)[y]
            chosen = rng.sample(paths, min(len(paths), rng.randint(0, 3)))
            entries[-1].append({p: Fraction(rng.choice([-1, 1]) * rng.randint(1, 7),
                                            rng.randint(1, 6)) for p in chosen})
    return PathMatrix(q, rows, cols, entries)


def regular_dim(sq, rng) -> DimensionVector:
    """Twice the null root plus seeded labels on each tau orbit."""
    d = null_root(sq.base).scale(2)
    for poly in tau_orbits(sq).polygons:
        if poly.partner is not None and poly.partner < poly.name:
            continue
        labels = [rng.randint(0, 2) for _ in range(poly.rank)]
        if poly.sigma is not None:
            labels = [max(labels[i], labels[poly.sigma[i]]) for i in range(poly.rank)]
            labels = [l - (l % 2 if poly.sigma[i] == i else 0)
                      for i, l in enumerate(labels)]
        for i, lab in enumerate(labels):
            d = d + poly.dims[i].scale(lab)
            if poly.partner is not None:
                d = d + sq.delta(poly.dims[i]).scale(lab)
    return d


def arc_templates(sq, d):
    """The presentation template of every arc module generators_tame visits."""
    out = []
    for lp in canonical_decomposition(sq, d).labelled:
        poly = lp.polygon
        if poly.partner is not None and poly.partner < poly.name:
            continue
        for arc in admissible_arcs(lp):
            length = poly.rank if arc.wrap or arc.length == 1 else arc.length - 1
            out.append(minimal_presentation(
                realize_interval(sq, poly.name, arc.start, length)))
    return out


def family_cases():
    rng = random.Random(41)
    for sq in TAME:
        for _ in range(2):
            d = regular_dim(sq, rng)
            for flavor in (SYMPLECTIC, ORTHOGONAL):
                if flavor == SYMPLECTIC and any(d[x] % 2 for x in sq.v_fixed):
                    continue
                yield sq, d, flavor


# -- evaluate_template against the Fraction loop ----------------------------------

def test_matches_oracle_on_random_rational_templates():
    rng = random.Random(7)
    for sq in FAMILIES:
        q = sq.base
        for _ in range(25):
            t = random_template(q, rng)
            w = rational_rep(q, rng)
            assert evaluate_template(t, w) == oracle_evaluate(t, w)


def test_matches_oracle_on_single_arrows():
    rng = random.Random(8)
    for sq in FAMILIES:
        q = sq.base
        for a in q.arrows:
            t = PathMatrix(q, [a.head], [a.tail],
                           [[{(a.name,): Fraction(rng.randint(-5, 5), rng.randint(1, 6))}]])
            for _ in range(3):
                w = rational_rep(q, rng)
                assert evaluate_template(t, w) == oracle_evaluate(t, w)


def test_matches_oracle_on_pencils_and_singletons():
    rng = random.Random(9)
    for sq in TAME:
        pen = pencil_templates(sq)
        for _ in range(4):
            w = rational_rep(sq.base, rng)
            for phi in (Fraction(0), Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)):
                t = pen.combine(phi, Fraction(1))
                assert evaluate_template(t, w) == oracle_evaluate(t, w)
    for k in (2, 4):
        sq = families.a00(k)
        t = pf_singleton_template(sq)
        for _ in range(5):
            w = rational_rep(sq.base, rng)
            assert evaluate_template(t, w) == oracle_evaluate(t, w)


def test_matches_oracle_on_arc_presentations():
    rng = random.Random(10)
    seen = 0
    for sq in TAME:
        for t in arc_templates(sq, regular_dim(sq, rng)):
            for _ in range(2):
                w = rational_rep(sq.base, rng)
                assert evaluate_template(t, w) == oracle_evaluate(t, w)
                seen += 1
    assert seen > 20


def test_shape_is_row_dims_by_col_dims():
    q = families.symmetric_a(4).base
    w = rational_rep(q, random.Random(3), dims=(2,))
    for rows, cols in (([], [1]), ([1], []), ([], []), ([2, 2], [1])):
        t = PathMatrix(q, rows, cols, [[{} for _ in cols] for _ in rows])
        m = evaluate_template(t, w)
        assert (m.rows, m.cols) == (2 * len(rows), 2 * len(cols))
        assert m == RationalMatrix.zero(m.rows, m.cols)


# -- the skew searches --------------------------------------------------------------

def scrambled(t: PathMatrix) -> PathMatrix:
    """The template with its rows reversed and the new first row negated,
    so that the first passing candidate is no longer the identity."""
    order = list(reversed(range(len(t.rows))))
    return PathMatrix(t.quiver, [t.rows[i] for i in order], list(t.cols),
                      [[{p: -v if k == 0 else v for p, v in e.items()} for e in t.entries[i]]
                       for k, i in enumerate(order)])


def scrambled_pencil(pen) -> Pencil:
    """The pencil with its first row negated."""
    def flip(grid):
        return [[{p: -v if r == 0 else v for p, v in e.items()} for e in row]
                for r, row in enumerate(grid)]
    return Pencil(pen.quiver, list(pen.rows), list(pen.cols), flip(pen.phi_entries),
                  flip(pen.psi_entries), flip(pen.const_entries))


def test_skew_search_matches_exhaustive_oracle():
    found = tried = 0
    moved = set()
    for sq, d, flavor in family_cases():
        witnesses = _SeededPoints(sq, flavor, d)
        for t in arc_templates(sq, d):
            for cand in (t, scrambled(t)):
                expect = oracle_skew_template(cand, witnesses)
                got = skew_normalize_template(cand, witnesses)
                tried += 1
                if expect is None:
                    assert got is None
                    continue
                found += 1
                assert (got.rows, got.cols, got.entries) == \
                    (expect.rows, expect.cols, expect.entries)
                moved.add(got.entries != cand.entries)
        pen = pencil_templates(sq)
        if evaluate_template(pen.combine(Fraction(1), Fraction(1)),
                             witnesses[0].full()).is_square():
            for cand in (pen, scrambled_pencil(pen)):
                expect = oracle_skew_pencil(cand, witnesses)
                got = _skew_normalize_pencil(cand, witnesses)
                assert (got and got.signs) == (expect and expect.signs)
                if got:
                    moved.add(-1 in got.signs)
    assert found and tried > found
    assert moved == {False, True}        # some winners permute or flip rows


def test_skew_search_takes_the_first_candidate():
    """Every candidate passes on a zero template; the identity with all
    signs + comes first in itertools order."""
    sq = families.symmetric_a(4)
    beta = DimensionVector({v: 2 for v in sq.base.vertices})
    t = PathMatrix(sq.base, [1, 2], [3, 4], [[{}, {}], [{}, {}]])
    got = skew_normalize_template(t, _SeededPoints(sq, ORTHOGONAL, beta))
    assert (got.rows, got.entries) == ((1, 2), t.entries)


def test_is_skew_with_row_signs():
    one, two = Fraction(1), Fraction(2)
    assert _is_skew([[0, one], [-one, 0]], [1, 1])
    assert not _is_skew([[0, one], [-one, 0]], [1, -1])
    assert _is_skew([[0, one], [one, 0]], [1, -1])
    assert not _is_skew([[one, 0], [0, 0]], [1, 1])
    assert not _is_skew([[0, one, 0], [-one, 0, two], [0, two, 0]], [1, 1, 1])


def test_skew_search_evaluates_once_per_witness(monkeypatch):
    calls = []
    evaluate = semiinvariant.evaluate_template
    monkeypatch.setattr(semiinvariant, "evaluate_template",
                        lambda t, w: calls.append(id(w)) or evaluate(t, w))
    most = 0
    for sq, d, flavor in family_cases():
        witnesses = _SeededPoints(sq, flavor, d)
        for t in arc_templates(sq, d):
            del calls[:]
            skew_normalize_template(t, witnesses)
            assert len(calls) == len(set(calls)) <= len(witnesses)
            most = max(most, len(calls))
    assert most == len(witnesses)        # some search got to the extra witnesses


def test_evaluate_all_builds_full_once_per_point(monkeypatch):
    built = []
    induced = representation._induced
    monkeypatch.setattr(representation, "_induced",
                        lambda sr: built.append(sr) or induced(sr))
    mixed = 0
    for sq, d, flavor in family_cases():
        gens = generators_tame(sq, d, flavor)
        mixed += len({g.kind for g in gens}) >= 2
        w = random_structured(sq, flavor, d, seed=12)
        del built[:]
        values = evaluate_all(gens, w)
        assert built == [w]
        assert evaluate_all(gens, w) == values and built == [w]
    assert mixed


def finite_cases():
    for sq in FAMILIES[:2]:
        for k in (1, 2):
            beta = DimensionVector({v: 2 * k for v in sq.base.vertices})
            for flavor in (SYMPLECTIC, ORTHOGONAL):
                yield sq, beta, flavor


def test_generators_tame_draws_each_point_once(monkeypatch):
    """The tame and the finite enumeration draw their points from the one
    seeded sequence only, each seed at most once."""
    seeds = []
    draw = semiinvariant.random_structured
    monkeypatch.setattr(semiinvariant, "random_structured",
                        lambda sq, flavor, d, seed: seeds.append(seed) or
                        draw(sq, flavor, d, seed=seed))

    def draws(enumerate_, sq, d, flavor):
        del seeds[:]
        enumerate_(sq, d, flavor)
        assert len(seeds) == len(set(seeds)) <= 8
        assert set(seeds) <= set(range(5000, 5008))
        return set(seeds)
    drawn = set()
    for case in family_cases():
        tame = draws(generators_tame, *case)
        assert tame
        drawn |= tame
    for case in finite_cases():
        drawn |= draws(semiinvariant.generators_finite, *case)
    assert drawn == set(range(5000, 5008))    # some skew search reads all eight


def test_generators_tame_evaluates_each_candidate_once_per_point(monkeypatch):
    """The nonzero and duplicate tests read each candidate's value at points
    0-2 at most, and each value is computed once: the det or pf kernel runs
    once per (candidate, point) read."""
    reads, kernels = [], []
    dedup = semiinvariant._dedup_values

    class Recorded:
        def __init__(self, values):
            self.values = values

        def __getitem__(self, k):
            reads.append((self, k))
            return self.values[k]

    def recording_kernel(kernel):
        return lambda m: kernels.append(m) or kernel(m)

    monkeypatch.setattr(semiinvariant, "_dedup_values", lambda values: dedup(Recorded(values)))
    for name in ("determinant", "pfaffian"):
        monkeypatch.setattr(semiinvariant, name, recording_kernel(getattr(semiinvariant, name)))
    most = 0
    for sq, d, flavor in family_cases():
        del reads[:], kernels[:]
        generators_tame(sq, d, flavor)
        assert reads
        assert len(set(reads)) == len(reads) == len(kernels)   # reads keeps every object alive
        per_candidate = {}
        for candidate, k in reads:
            per_candidate.setdefault(candidate, set()).add(k)
        assert all(points <= {0, 1, 2} for points in per_candidate.values())
        most = max(most, max(map(len, per_candidate.values())))
    assert most == 3                          # some candidate vanished at points 0-1


def test_generators_tame_evaluates_each_template_once_per_point(monkeypatch):
    """Within one enumeration no template object is evaluated twice at the
    same point: the skew search and the nonzero and duplicate tests share
    one evaluation per template and point."""
    calls = []
    evaluate = semiinvariant.evaluate_template
    monkeypatch.setattr(semiinvariant, "evaluate_template",
                        lambda t, w: calls.append((t, w)) or evaluate(t, w))
    total = 0
    for sq, d, flavor in family_cases():
        del calls[:]
        generators_tame(sq, d, flavor)
        pairs = {(id(t), id(w)) for t, w in calls}     # calls keeps every object alive
        assert len(pairs) == len(calls), (sq.base.name, d, flavor)
        total += len(calls)
    assert total


def test_enumerations_do_not_depend_on_their_order():
    """Enumerating the same quiver objects in two orders, in one process,
    gives the same records."""
    cases = list(family_cases()) + list(finite_cases())

    def lines(case):
        sq, d, flavor = case
        enumerate_ = semiinvariant.generators_finite if sq in FAMILIES[:2] else generators_tame
        return [descriptor_to_json(g) for g in enumerate_(sq, d, flavor)]

    forward = [lines(case) for case in cases]
    backward = [lines(case) for case in reversed(cases)]
    assert forward == backward[::-1]
    assert sum(map(len, forward)) > len(cases)


@pytest.mark.parametrize("flavor", [SYMPLECTIC, ORTHOGONAL])
def test_skew_witnesses_are_drawn_lazily(flavor, monkeypatch):
    sq = families.symmetric_a(4)
    beta = DimensionVector({v: 2 for v in sq.base.vertices})
    seeds = []
    draw = semiinvariant.random_structured
    monkeypatch.setattr(semiinvariant, "random_structured",
                        lambda sq, flavor, d, seed: seeds.append(seed) or
                        draw(sq, flavor, d, seed=seed))
    witnesses = _SeededPoints(sq, flavor, beta)
    assert seeds == []
    assert witnesses[1] is witnesses[1] and seeds == [5001]


# -- the int-row presentation and the per-representation path table -------------

def _layout(t: PathMatrix):
    """Rows, columns and every entry's (path, coefficient) items in order."""
    return (t.rows, t.cols, [[list(e.items()) for e in row] for row in t.entries])


def presented_modules(cases):
    """Every module that generators_tame presents on the cases.  Each case
    runs on a fresh copy of its quiver, which has no arc templates kept
    from an earlier enumeration."""
    modules = []
    present = semiinvariant.minimal_presentation
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semiinvariant, "minimal_presentation",
                   lambda m: modules.append(m) or present(m))
        for sq, d, flavor in cases:
            generators_tame(sq.with_base(sq.base), d, flavor)
    return modules


def null_root_cases():
    for sq in TAME:
        for scale in (1, 2):
            d = null_root(sq.base).scale(scale)
            for flavor in (SYMPLECTIC, ORTHOGONAL):
                if flavor == SYMPLECTIC and any(d[x] % 2 for x in sq.v_fixed):
                    continue
                yield sq, d, flavor


def test_int_presentations_match_the_rational_oracle_on_enumerated_modules():
    modules = presented_modules(list(family_cases()) + list(null_root_cases()))
    assert len(modules) > 100
    for m in modules:
        t = minimal_presentation(m)
        assert _layout(t) == _layout(oracle_minimal_presentation(m))
        assert all(type(v) is Fraction for row in t.entries for e in row for v in e.values())


def test_int_presentations_match_the_rational_oracle_on_fractional_modules():
    rng = random.Random(35)
    fractional = 0
    for sq in FAMILIES:
        for _ in range(12):
            m = rational_rep(sq.base, rng)
            fractional += any(a.den > 1 for a in m.matrices.values())
            assert _layout(minimal_presentation(m)) == _layout(oracle_minimal_presentation(m))
        for seed in (1, 2):
            # a point of the enumeration, moved off the integers
            full = random_structured(sq, ORTHOGONAL, null_root(sq.base) if sq in TAME else
                                     DimensionVector({v: 2 for v in sq.base.vertices}),
                                     seed=seed).full()
            m = Representation(full.quiver, full.dim,
                               {name: a.scale(Fraction(seed, 2 + k))
                                for k, (name, a) in enumerate(full.matrices.items())})
            assert _layout(minimal_presentation(m)) == _layout(oracle_minimal_presentation(m))
    assert fractional > 50


def test_path_table_gives_the_same_matrices_in_any_order():
    """Templates evaluated at one representation in two orders, and at fresh
    copies of it, give equal matrices: a product kept for one template is
    the product every other template asks for."""
    for sq, d, flavor in family_cases():
        templates = arc_templates(sq, d) + [pencil_templates(sq).combine(Fraction(k), Fraction(1))
                                            for k in (0, 1)]
        point = random_structured(sq, flavor, d, seed=3).full()

        def fresh():
            return Representation(point.quiver, point.dim, dict(point.matrices))

        forward = [evaluate_template(t, point) for t in templates]
        backward = [evaluate_template(t, point) for t in reversed(templates)][::-1]
        one_each = [evaluate_template(t, fresh()) for t in templates]
        assert forward == backward == one_each
        assert forward == [oracle_evaluate(t, fresh()) for t in templates]


def test_generators_tame_multiplies_each_path_once_per_point(monkeypatch):
    """Within one enumeration every path product (a path of length >= 2 at
    a point) is formed once, whichever candidates share it."""
    products, calls = [], []
    multiply, evaluate = presentation._int_product, semiinvariant.evaluate_template
    monkeypatch.setattr(presentation, "_int_product",
                        lambda a, n, cols: products.append(1) or multiply(a, n, cols))
    monkeypatch.setattr(semiinvariant, "evaluate_template",
                        lambda t, w: calls.append((t, w)) or evaluate(t, w))
    shared = 0
    for sq, d, flavor in family_cases():
        del products[:], calls[:]
        generators_tame(sq, d, flavor)
        # calls keeps every point alive, so no id is reused
        pairs = {(path[:k], id(w)) for t, w in calls for row in t.entries for e in row
                 for path in e for k in range(2, len(path) + 1)}
        assert len(products) == len(pairs), (sq.base.name, d, flavor)
        per_template = sum(len({path[:k] for row in t.entries for e in row for path in e
                                for k in range(2, len(path) + 1)}) for t, _ in calls)
        shared += per_template - len(pairs)
    assert shared > 0                  # the table saves products across templates
