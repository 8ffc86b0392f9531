import random
from itertools import permutations

import pytest

from knvex import posets, search
from knvex import freeness
from knvex.freeness import InducedKneser, _embed, _Plan, _quotient_contains, _symmetry_blocks, check_witness
from knvex.patterns import Bipartition, bipartition, make_pattern, parse_pattern
from knvex.posets import (
    CollisionError,
    IncrementalPosetChecker,
    LevelCertification,
    Poset,
    antichain,
    butterfly,
    chain,
    complete_three_level,
    contains_poset_copy,
    crown,
    e_of_poset,
    is_poset_free,
    la,
    lambda_poset,
    named_poset,
    poset_copy_to_graph_copy,
    poset_from_bipartite,
    poset_from_text,
    poset_to_text,
    v_poset,
)
from knvex.sets import Family, complement, family_complement, level_slice, mask_of, upset

from oracles import automorphism_orbit_minima, poset_copy_exists, transitive_closure, two_block_masks

NAMED_POSETS = {
    "chain2": chain(2),
    "V": v_poset(),
    "Lambda": lambda_poset(),
    "butterfly": butterfly(),
    "crown6": crown(6),
}


def F(n, *sets):
    return Family.of(n, [mask_of(s, n) for s in sets])


def isomorphic(a: Poset, b: Poset) -> bool:
    """Brute-force isomorphism oracle for small posets."""
    if a.size != b.size:
        return False
    for perm in permutations(range(a.size)):
        if all(
            a.less(p, q) == b.less(perm[p], perm[q])
            for p in range(a.size)
            for q in range(a.size)
        ):
            return True
    return False


class TestPosetBasics:
    def test_closure_is_applied(self):
        p = Poset.from_relations(3, [(0, 1), (1, 2)])
        assert p.less(0, 2)

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match=r"^relation \(1,0\) closes a cycle$"):
            Poset.from_relations(2, [(0, 1), (1, 0)])

    def test_from_relations_is_the_transitive_closure(self):
        rng = random.Random(11)
        outcomes = set()
        for _ in range(1000):
            size = rng.randint(1, 6)
            pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 9))]
            pairs = [(p, q) for p, q in pairs if p != q]
            closure = transitive_closure(size, pairs)
            cyclic = any(closure[p] >> p & 1 for p in range(size))
            outcomes.add(cyclic)
            if cyclic:
                with pytest.raises(ValueError, match="closes a cycle"):
                    Poset.from_relations(size, pairs)
            else:
                assert Poset.from_relations(size, pairs).above == tuple(closure)
        assert outcomes == {False, True}

    def test_covers_drop_implied_relations(self):
        p = chain(3)
        assert p.covers == ((0, 1), (1, 2))

    def test_linear_extension_respects_order(self):
        p = butterfly()
        order = p.linear_extension
        pos = {v: i for i, v in enumerate(order)}
        for a in range(p.size):
            for b in range(p.size):
                if p.less(a, b):
                    assert pos[a] < pos[b]


class TestPosetFromBipartite:
    def test_c4_gives_butterfly(self):
        p = poset_from_bipartite(make_pattern("cycle", 4))
        assert p == butterfly()
        assert isomorphic(p, complete_three_level(2, 0)) is False

    def test_star_with_center_side(self):
        s3 = make_pattern("star", 3)
        p = poset_from_bipartite(s3)  # canonical side_a = {center}
        # one top above three bottoms
        assert [p.below[v].bit_count() for v in range(p.size)] == [3, 0, 0, 0]

    def test_c6_both_orientations_agree(self):
        c6 = make_pattern("cycle", 6)
        bip = bipartition(c6)
        a_side = poset_from_bipartite(c6, bip.side_a)
        b_side = poset_from_bipartite(c6, bip.side_b)
        assert isomorphic(a_side, b_side)

    def test_rejects_non_bipartite(self):
        with pytest.raises(ValueError):
            poset_from_bipartite(make_pattern("cycle", 5))

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            poset_from_bipartite(make_pattern("cycle", 4), frozenset({0, 1}))


class TestCompleteThreeLevel:
    def test_one_one_is_chain(self):
        assert isomorphic(complete_three_level(1, 1), chain(3))

    def test_two_zero_is_lambda(self):
        assert complete_three_level(2, 0) == lambda_poset()

    def test_two_two_shape(self):
        p = complete_three_level(2, 2)
        assert p.size == 5
        # the middle element sits above both bottoms and below both tops
        assert (p.below[2], p.above[2]) == (0b00011, 0b11000)


class TestHeight:
    def test_bipartite_posets_have_height_2(self):
        # no chain of three: every element is minimal or maximal
        for name in ("M2", "S3", "C4", "C6", "K2,3"):
            p = poset_from_bipartite(parse_pattern(name))
            assert all(p.above[v] == 0 or p.below[v] == 0 for v in range(p.size))


class TestContainsPosetCopy:
    def test_v_copy(self):
        copy = contains_poset_copy(F(3, [1], [1, 2], [1, 3]), v_poset())
        assert copy is not None
        assert copy[0] == mask_of([1], 3)

    def test_butterfly_copy(self):
        fam = F(3, [1], [2], [1, 2], [1, 2, 3])
        assert poset_copy_exists(fam.members, butterfly())
        copy = contains_poset_copy(fam, butterfly())
        assert copy is not None
        bottoms = {copy[1], copy[3]}
        assert bottoms == {mask_of([1], 3), mask_of([2], 3)}

    def test_two_consecutive_levels_have_no_butterfly(self):
        for n in range(2, 9):
            for j in range(n - 1):
                fam = level_slice(n, j + 1, j + 2)
                assert contains_poset_copy(fam, butterfly()) is None

    def test_agrees_with_oracle_on_random_families(self):
        # random relabelled posets too, so the search runs along linear
        # extensions that are not label order
        shapes = random.Random(29)
        posets = list(NAMED_POSETS.values())
        for _ in range(12):
            size = shapes.randint(2, 4)
            pairs = [
                (p, q) for p in range(size) for q in range(p + 1, size) if shapes.random() < 0.5
            ]
            perm = shapes.sample(range(size), size)
            posets.append(Poset.from_relations(size, [(perm[p], perm[q]) for p, q in pairs]))
        assert any(p.linear_extension != tuple(range(p.size)) for p in posets[len(NAMED_POSETS):])
        rng = random.Random(17)
        for _ in range(40):
            masks = [m for m in range(16) if rng.random() < 0.4]
            fam = Family.of(4, masks)
            for poset in posets:
                got = contains_poset_copy(fam, poset)
                assert (got is not None) == poset_copy_exists(masks, poset)

    def test_unforced_search_reads_only_the_superset_rows(self):
        # a static search passes the superset rows alone, so a search that
        # read the subset rows would fail here
        def below(i):
            raise AssertionError("an unforced search read rows[1]")

        rng = random.Random(53)
        for trial in range(60):
            n = rng.randint(1, 6)
            masks = set(rng.sample(range(1 << n), rng.randint(0, min(8, 1 << n))))
            if trial % 3 == 0:
                masks |= {0, (1 << n) - 1}
            fam = Family.of(n, masks)
            members = fam.members
            up = [
                sum(1 << j for j, b in enumerate(members) if a != b and a & b == a)
                for a in members
            ]
            host = freeness._SupersetHost(fam)
            assert [host.neighbor_mask(i) for i in range(len(members))] == up
            for poset in NAMED_POSETS.values():
                rows = (host.neighbor_mask, below)
                got = _embed(posets._poset_plan(poset), len(members), rows)
                assert (got is not None) == poset_copy_exists(members, poset)

    def test_pruned_search_returns_the_plain_copy(self):
        # a host with one or two blocks, found from the family, is pruned to
        # its quotient, and a copy found there is still the plain embedder's
        names = ["butterfly", "V", "Lambda", "chain3", "crown4", "crown6", "antichain3"]
        named = [named_poset(name) for name in names + ["K1,1,3", "K2,1,2"]]
        rng = random.Random(41)
        hosts = []
        for _ in range(40):
            n = rng.randint(1, 6)
            lo = rng.randint(0, n)
            hosts.append(level_slice(n, lo, rng.randint(lo, n)))
            hosts.append(upset(Family.of(n, rng.sample(range(1 << n), rng.randint(1, 2)))))
            hosts.append(Family.of(n, [m for m in range(1 << n) if rng.random() < 0.5]))
        symmetric = 0
        for fam in hosts:
            symmetric += len(_symmetry_blocks(fam)) <= 2
            for poset in named:
                got = contains_poset_copy(fam, poset)
                rows = (freeness._SupersetHost(fam).neighbor_mask,)
                plain = _embed(posets._poset_plan(poset), len(fam), rows)
                if plain is not None:
                    plain = {e: fam.members[i] for e, i in plain.items()}
                assert got == plain
        assert symmetric > 40

    @pytest.mark.parametrize(
        "name, n, lo, hi, free",
        [
            ("butterfly", 8, 3, 4, True),
            ("butterfly", 8, 3, 5, False),
            ("K2,1,2", 8, 3, 5, False),
            ("crown6", 8, 3, 4, False),
            ("chain3", 8, 4, 5, True),
        ],
    )
    def test_verdicts_build_no_rows(self, monkeypatch, name, n, lo, hi, free):
        # a level window has one block, so it is decided on atom counts with
        # or without a copy in it; a copy asked for comes from the embedder
        def refuse(host, i):
            raise AssertionError("a superset row was built")

        fam, poset = level_slice(n, lo, hi), named_poset(name)
        monkeypatch.setattr(InducedKneser, "neighbor_mask", refuse)
        assert is_poset_free(fam, poset) is free
        if free:
            assert contains_poset_copy(fam, poset) is None
        else:
            with pytest.raises(AssertionError, match="row was built"):
                contains_poset_copy(fam, poset)

    @pytest.mark.parametrize("name, n_max", [("K2,3", 6), ("butterfly", 8), ("K2,1,2", 8)])
    def test_e_of_poset_builds_rows_for_its_certificate_only(self, monkeypatch, name, n_max):
        # with one row per host class, e_of_poset built 252, 1002 and 912 rows here
        poset = poset_from_bipartite(parse_pattern(name)) if name == "K2,3" else named_poset(name)
        rows = []
        neighbor_mask = InducedKneser.neighbor_mask

        def counted(host, i):
            if i not in host._rows:
                rows.append(i)
            return neighbor_mask(host, i)

        monkeypatch.setattr(InducedKneser, "neighbor_mask", counted)
        cert = e_of_poset(poset, n_max)
        built = len(rows)
        lo = cert.certificate_lowest_level
        window = level_slice(cert.certificate_n, lo, lo + cert.value)
        assert contains_poset_copy(window, poset) == cert.certificate
        assert 0 < built == len(rows) - built

    def test_plan_rejects_an_order_with_a_later_element_below(self):
        # the search checks only "above" along the route, so an element placed
        # after one it lies below would go unchecked
        v = v_poset()
        _Plan((v.above, v.below), v.linear_extension)
        with pytest.raises(ValueError):
            _Plan((v.above, v.below), (1, 0, 2))

    def test_failed_first_element_stays_usable_outside_its_orbit(self):
        # {2,3} fails as the isolated element 0 and must still serve as 1 < 2;
        # only elements in the orbit of 0 (here 0 and 3) may drop it
        poset = Poset.from_relations(4, [(1, 2)])
        masks = [mask_of(s, 4) for s in ([2, 3], [1, 2, 3], [1, 4], [2, 4])]
        assert poset_copy_exists(masks, poset)
        assert contains_poset_copy(Family.of(4, masks), poset) is not None

    def test_copy_is_order_preserving(self):
        fam = level_slice(4, 0, 4)
        for poset in NAMED_POSETS.values():
            copy = contains_poset_copy(fam, poset)
            assert copy is not None
            for p in range(poset.size):
                for q in range(poset.size):
                    if poset.less(p, q):
                        assert copy[p] & copy[q] == copy[p]


# the posets the quotient search is checked on, with the oriented K2,3
QUOTIENT_POSETS = {
    name: named_poset(name)
    for name in (
        "V", "Lambda", "butterfly", "K2,1,2", "K2,1,3", "crown6", "chain2", "chain3", "chain5",
        "antichain4",
    )
}
QUOTIENT_POSETS["P(K2,3)"] = poset_from_bipartite(parse_pattern("K2,3"))


def quotient_agrees(fam: Family, poset: Poset) -> bool:
    """The quotient search decides the host and agrees with the plain embedder."""
    found = _quotient_contains(fam, _symmetry_blocks(fam), posets._poset_plan(poset))
    assert found is not None
    rows = (freeness._SupersetHost(fam).neighbor_mask,)
    assert found == (_embed(posets._poset_plan(poset), len(fam), rows) is not None)
    return found


def two_block_family(rng: random.Random, n: int) -> Family:
    return Family.of(n, two_block_masks(rng, n))


class TestPosetQuotient:
    def test_level_windows(self):
        found = 0
        for n in range(1, 9):
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    fam = level_slice(n, lo, hi)
                    for poset in QUOTIENT_POSETS.values():
                        found += quotient_agrees(fam, poset)
        assert 0 < found < 164 * len(QUOTIENT_POSETS)

    def test_random_two_block_families(self):
        rng = random.Random(11)
        for _ in range(60):
            fam = two_block_family(rng, rng.randint(1, 8))
            assert len(_symmetry_blocks(fam)) <= 2
            for poset in QUOTIENT_POSETS.values():
                quotient_agrees(fam, poset)
                if len(fam) <= 7:
                    found = contains_poset_copy(fam, poset) is not None
                    assert found == poset_copy_exists(fam.members, poset) != is_poset_free(fam, poset)

    def test_relabelling_keeps_the_verdict(self):
        rng = random.Random(19)
        hosts = [two_block_family(rng, rng.randint(3, 7)) for _ in range(15)]
        hosts += [level_slice(6, 2, 4), level_slice(7, 3, 4)]
        for poset in QUOTIENT_POSETS.values():
            size = poset.size
            pairs = [(p, q) for p in range(size) for q in range(size) if poset.less(p, q)]
            for _ in range(3):
                perm = rng.sample(range(size), size)
                relabelled = Poset.from_relations(size, [(perm[p], perm[q]) for p, q in pairs])
                for fam in hosts:
                    blocks = _symmetry_blocks(fam)
                    expected = _quotient_contains(fam, blocks, posets._poset_plan(poset))
                    assert _quotient_contains(fam, blocks, posets._poset_plan(relabelled)) == expected

    @pytest.mark.parametrize(
        "name, n, lo, hi, found, states",
        [
            ("butterfly", 8, 3, 4, False, 10),
            ("butterfly", 8, 4, 5, False, 11),
            ("butterfly", 3, 0, 2, True, 6),
            ("K2,1,2", 4, 2, 4, False, 19),
            ("K2,1,2", 4, 1, 3, True, 8),
        ],
    )
    def test_states_tried_on_eposet_windows(self, monkeypatch, name, n, lo, hi, found, states):
        # a deterministic count; the last free windows and the certificate
        # windows of e_of_poset on the butterfly and K2,1,2
        fam = level_slice(n, lo, hi)
        blocks = _symmetry_blocks(fam)
        plan = posets._poset_plan(named_poset(name))
        monkeypatch.setattr(freeness, "QUOTIENT_STATES", states)
        assert _quotient_contains(fam, blocks, plan) is found
        monkeypatch.setattr(freeness, "QUOTIENT_STATES", states - 1)
        assert _quotient_contains(fam, blocks, plan) is None


class TestIncrementalPosetChecker:
    def test_orbit_representatives(self):
        cases = [
            (v_poset(), (0, 1)),
            (butterfly(), (0, 1)),
            (complete_three_level(2, 2), (0, 2, 3)),
        ]
        for poset, reps in cases:
            assert IncrementalPosetChecker([poset], 3).orbit_reps == (reps,)
        assert IncrementalPosetChecker([chain(3), antichain(3)], 3).orbit_reps == ((0, 1, 2), (0,))

    def test_orbits_agree_with_brute_force_automorphisms(self):
        rng = random.Random(23)
        for _ in range(40):
            size = rng.randint(1, 5)
            pairs = [(p, q) for p in range(size) for q in range(p + 1, size) if rng.random() < 0.3]
            perm = rng.sample(range(size), size)
            poset = Poset.from_relations(size, [(perm[p], perm[q]) for p, q in pairs])
            relation = [(p, q) for p in range(size) for q in range(size) if poset.less(p, q)]
            (reps,) = IncrementalPosetChecker([poset], 3).orbit_reps
            assert reps == automorphism_orbit_minima(size, relation)

    def test_replay_agrees_with_contains_poset_copy(self):
        rng = random.Random(7)
        relabelled_butterfly = Poset.from_relations(4, [(2, 0), (2, 3), (1, 0), (1, 3)])
        lists = [
            [v_poset()],
            [butterfly()],
            [relabelled_butterfly],
            [lambda_poset(), chain(3)],
        ]
        for forbidden in lists:
            chk = IncrementalPosetChecker(forbidden, 4)
            stack = []
            for _ in range(150):
                if stack and rng.random() < 0.4:
                    assert chk.pop() == stack.pop()
                else:
                    remaining = [m for m in range(16) if m not in stack]
                    if not remaining:
                        continue
                    mask = rng.choice(remaining)
                    chk.push(mask)
                    stack.append(mask)
                fam = Family.of(4, stack)
                expected = all(contains_poset_copy(fam, poset) is None for poset in forbidden)
                assert chk.currently_free() == expected

    def test_the_checker_verdict_is_relabel_invariant(self):
        # relabelling [n] keeps inclusion, so it keeps the verdict
        rng = random.Random(19)
        for _ in range(150):
            size = rng.randint(2, 4)
            pairs = [(p, q) for p in range(size) for q in range(p + 1, size) if rng.random() < 0.5]
            poset = Poset.from_relations(size, pairs)
            n = rng.randint(2, 5)
            fam = Family.of(n, rng.sample(range(1 << n), rng.randint(1, 1 << (n - 1))))
            perm = rng.sample(range(n), n)
            image = Family.of(n, (sum(1 << perm[b] for b in range(n) if m >> b & 1) for m in fam))
            verdicts = []
            for members in (fam.members, image.members):
                checker = IncrementalPosetChecker([poset], n)
                for m in members:
                    checker.push(m)
                verdicts.append(checker.currently_free())
            assert verdicts[0] == verdicts[1] == (contains_poset_copy(fam, poset) is None)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            IncrementalPosetChecker([v_poset()], 2).pop()

    def test_push_rejects_masks_outside_the_ground(self):
        chk = IncrementalPosetChecker([v_poset()], 3)
        for mask in (1 << 5, 1 << 3, -1):
            with pytest.raises(ValueError):
                chk.push(mask)
        assert len(chk) == 0 and chk.currently_free()

    @pytest.mark.parametrize(
        "name", ["chain2", "chain3", "antichain4", "V", "Lambda", "butterfly", "crown6", "K2,1,3"]
    )
    def test_chain_cap_is_attained(self, name):
        poset = named_poset(name)
        # the larger crown8 leaves the minimum over the list to poset
        chk = IncrementalPosetChecker([poset, crown(8)], poset.size)
        cap = chk.chain_cap
        assert cap == poset.size - 1
        # a cap-chain is free, a (cap+1)-chain is a violation
        for k in range(cap):
            chk.push((1 << k) - 1)
        assert chk.currently_free()
        chk.push((1 << cap) - 1)
        assert not chk.currently_free()

    def test_empty_list_has_no_chain_cap(self):
        assert IncrementalPosetChecker([], 3).chain_cap is None


class TestLa:
    def test_sperner_values(self):
        assert la(2, [chain(2)]).value == 2
        assert la(3, [chain(2)]).value == 3

    def test_butterfly_lower_bound(self):
        res = la(4, [butterfly()])
        assert res.exact
        assert res.value >= 10
        assert contains_poset_copy(level_slice(4, 1, 2), butterfly()) is None

    def test_witness_is_free_and_sized(self):
        res = la(4, [v_poset()])
        assert len(res.witness) == res.value
        assert contains_poset_copy(res.witness, v_poset()) is None

    def test_more_posets_never_help(self):
        base = la(3, [chain(2)]).value
        both = la(3, [chain(2), v_poset()]).value
        assert both <= base

    def test_symmetric_at_most_plain(self):
        for posets in ([chain(2)], [butterfly()]):
            sym = la(4, posets, symmetric=True)
            plain = la(4, posets)
            assert sym.value <= plain.value
            assert family_complement(sym.witness) == sym.witness

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            la(6, [chain(2)])

    def test_empty_list_keeps_the_whole_cube(self):
        assert la(3, []).value == 8

    @pytest.mark.parametrize(
        "forbidden, symmetric, value, nodes",
        [
            ([v_poset()], False, 13, 172_806),
            ([lambda_poset()], True, 12, 909),
            ([butterfly()], True, 20, 1_070),
        ],
    )
    def test_frozen_values_at_n5(self, forbidden, symmetric, value, nodes):
        res = la(5, forbidden, symmetric)
        assert res.exact
        assert res.value == value
        assert res.nodes == nodes
        assert all(contains_poset_copy(res.witness, poset) is None for poset in forbidden)

    @pytest.mark.parametrize(
        "forbidden, value, nodes", [([v_poset()], 6, 56), ([butterfly()], 10, 51)]
    )
    def test_frozen_symmetric_values_at_n4(self, forbidden, value, nodes):
        # levels 1..2 are not complement-closed at n = 4, so only level 2 can seed
        res = la(4, forbidden, symmetric=True)
        assert res.exact
        assert res.value == value
        assert res.nodes == nodes
        assert family_complement(res.witness) == res.witness
        assert all(contains_poset_copy(res.witness, poset) is None for poset in forbidden)

    def test_chain_bound_keeps_answers_and_saves_nodes(self, monkeypatch):
        rng = random.Random(41)
        cases = []
        for _ in range(40):
            forbidden = []
            for _ in range(rng.randint(1, 2)):
                size = rng.randint(2, 4)
                pairs = [
                    (p, q) for p in range(size) for q in range(p + 1, size) if rng.random() < 0.5
                ]
                perm = rng.sample(range(size), size)
                forbidden.append(Poset.from_relations(size, [(perm[p], perm[q]) for p, q in pairs]))
            cases.append((rng.randint(2, 4), forbidden, rng.random() < 0.5))
        cases += [(4, [NAMED_POSETS[name]], sym) for name in NAMED_POSETS for sym in (False, True)]
        bounded = [la(n, forbidden, symmetric) for n, forbidden, symmetric in cases]
        # without a cap la passes no partitions: the search of the trivial bound alone
        monkeypatch.setattr(IncrementalPosetChecker, "chain_cap", property(lambda self: None))
        saved = 0
        for (n, forbidden, symmetric), res in zip(cases, bounded):
            plain = la(n, forbidden, symmetric)
            assert (res.value, res.witness, res.exact) == (plain.value, plain.witness, plain.exact)
            assert res.nodes <= plain.nodes
            saved += plain.nodes - res.nodes
        assert saved > 0

    @pytest.fixture
    def copy_calls(self, monkeypatch):
        calls = []
        real = posets.is_poset_free

        def counting(fam, poset):
            calls.append(len(fam))
            return real(fam, poset)

        monkeypatch.setattr(posets, "is_poset_free", counting)
        # la asks for verdicts only, never for a copy
        monkeypatch.setattr(posets, "contains_poset_copy", None)
        return calls

    def test_found_witness_is_rechecked(self, copy_calls):
        res = la(4, [v_poset()])
        assert res.value == 7
        # the two seed windows (levels 1..2 hold a V, level 2 does not), then the witness
        assert copy_calls == [10, 6, 7]

    def test_seed_witness_is_not_rechecked(self, copy_calls):
        res = la(4, [chain(2)])
        assert res.witness == level_slice(4, 2, 2)
        assert copy_calls == [10, 6]

    def test_a_witness_failing_the_recheck_raises(self, monkeypatch):
        # a search that returns the two lower levels, which hold a V
        bad = level_slice(4, 1, 2)
        monkeypatch.setattr(search, "max_family_avoiding", lambda *a, **k: (10, bad, True, 0))
        with pytest.raises(AssertionError):
            la(4, [v_poset()])

    def test_budget_returns_lower_bound(self):
        res = la(4, [v_poset()], max_nodes=5)
        assert not res.exact
        assert res.value <= 6
        assert len(res.witness) == res.value
        # Sperner: the chain bound meets the middle-level seed at the root
        res = la(4, [chain(2)])
        assert res.exact
        assert res.nodes == 1


class TestEOfPoset:
    def test_butterfly(self):
        cert = e_of_poset(butterfly(), 8)
        assert cert.value == 2
        assert cert.certificate is not None
        levels = {m.bit_count() for m in cert.certificate.values()}
        assert max(levels) - min(levels) <= 2

    def test_crown(self):
        cert = e_of_poset(crown(6), 8)
        assert cert.value == 1
        assert cert.certificate_n == 3
        assert {m.bit_count() for m in cert.certificate.values()} == {1, 2}

    def test_chain(self):
        assert e_of_poset(chain(2), 6).value == 1

    def test_windows_at_level_0_are_checked(self):
        # levels 0..1 of 2^[2] are {}, {1}, {2}: a V, which no window of [1] holds
        cert = e_of_poset(v_poset(), 2)
        assert cert.value == 1
        assert (cert.certificate_n, cert.certificate_lowest_level) == (2, 0)
        assert sorted(cert.certificate.values()) == [0b00, 0b01, 0b10]

    def test_antichain_breaks_inside_one_level(self):
        assert e_of_poset(antichain(3), 6).value == 0

    def test_height_refusal_keeps_every_certification(self):
        # windows narrower than the height are skipped; the loop below checks them all
        def unskipped(poset, n_max):
            for k in range(1, n_max + 1):
                for n in range(1, n_max + 1):
                    for j in range(0, n - k + 2):
                        copy = contains_poset_copy(level_slice(n, j, j + k - 1), poset)
                        if copy is not None:
                            return LevelCertification(k - 1, copy, n, j)
            return LevelCertification(n_max, None, None, None)

        names = ["V", "Lambda", "butterfly", "crown4", "crown6", "crown8", "antichain2"]
        names += ["antichain4", "K1,1,1", "K1,1,3", "K2,1,2", "K2,1,3", "K3,1,3"]
        names += [f"chain{h}" for h in range(1, 10)]
        for name in names:
            for n_max in range(1, 9):
                poset = named_poset(name)
                assert e_of_poset(poset, n_max) == unskipped(poset, n_max)

    def test_a_chain_taller_than_every_window_is_not_searched(self, monkeypatch):
        # chain16 ran over ten minutes at n_max 12 before windows were refused by height
        monkeypatch.setattr(posets, "contains_poset_copy", None)
        assert e_of_poset(chain(16), 12) == LevelCertification(12, None, None, None)
        # a 12-chain fits the 12 levels of 2^[11], so that window is checked
        with pytest.raises(TypeError):
            e_of_poset(chain(12), 12)

    def test_la_beats_middle_levels(self):
        for poset in (chain(2), butterfly(), v_poset()):
            e = e_of_poset(poset, 6).value
            for n in range(2, 5):
                lo = (n - e + 1) // 2
                middle = level_slice(n, lo, min(n, lo + e - 1))
                assert la(n, [poset]).value >= len(middle)


class TestPosetCopyToGraphCopy:
    def _closed(self, n, masks):
        out = set()
        for m in masks:
            out.add(m)
            out.add(complement(m, n))
        return Family.of(n, out)

    def test_path_example(self):
        p3 = make_pattern("star", 2)
        bip = Bipartition(frozenset({1, 2}), frozenset({0}))  # endpoints up
        host = self._closed(4, [mask_of([1, 2], 4), mask_of([1, 2, 3], 4), mask_of([1, 2, 4], 4)])
        copy = {0: mask_of([1, 2], 4), 1: mask_of([1, 2, 3], 4), 2: mask_of([1, 2, 4], 4)}
        image = poset_copy_to_graph_copy(copy, p3, bip, host)
        assert image[0] == mask_of([1, 2], 4)
        assert image[1] == mask_of([4], 4)
        assert image[2] == mask_of([3], 4)
        assert check_witness(host, p3, image)

    def test_chain_example(self):
        k2 = make_pattern("clique", 2)
        bip = bipartition(k2)
        host = self._closed(4, [mask_of([1, 2], 4), mask_of([1, 2, 3], 4)])
        copy = {0: mask_of([1, 2, 3], 4), 1: mask_of([1, 2], 4)}
        image = poset_copy_to_graph_copy(copy, k2, bip, host)
        assert image == {0: mask_of([4], 4), 1: mask_of([1, 2], 4)}

    def test_collision_raises_boundary_pair(self):
        # for related elements only [n] over the empty set can collide
        k2 = make_pattern("clique", 2)
        bip = bipartition(k2)
        host = self._closed(4, [0])
        copy = {0: mask_of([1, 2, 3, 4], 4), 1: 0}
        with pytest.raises(CollisionError):
            poset_copy_to_graph_copy(copy, k2, bip, host)

    def test_collision_raises_across_unrelated_pair(self):
        # crown copy in the two bottom levels of 2^[3]: the bottom {2} is the
        # complement of the top {1,3} it is not related to
        c6 = make_pattern("cycle", 6)
        bip = bipartition(c6)
        host = level_slice(3, 0, 3)
        copy = {
            1: mask_of([1], 3),
            3: mask_of([2], 3),
            5: mask_of([3], 3),
            0: mask_of([1, 3], 3),
            2: mask_of([1, 2], 3),
            4: mask_of([2, 3], 3),
        }
        with pytest.raises(CollisionError):
            poset_copy_to_graph_copy(copy, c6, bip, host)

    def test_rejects_a_set_outside_the_host(self):
        # {1,2} is not in the host {{1}, {2,3}}
        s2 = make_pattern("star", 2)
        host = Family.of(3, [mask_of([1], 3), mask_of([2, 3], 3)])
        copy = {0: mask_of([1, 2], 3), 1: mask_of([1], 3), 2: mask_of([2], 3)}
        with pytest.raises(ValueError, match="outside the host"):
            poset_copy_to_graph_copy(copy, s2, bipartition(s2), host)

    def test_rejects_open_host(self):
        k2 = make_pattern("clique", 2)
        bip = bipartition(k2)
        host = Family.of(4, [mask_of([1, 2], 4), mask_of([1, 2, 3], 4)])
        copy = {0: mask_of([1, 2, 3], 4), 1: mask_of([1, 2], 4)}
        with pytest.raises(ValueError):
            poset_copy_to_graph_copy(copy, k2, bip, host)

    def test_random_conversions_are_sound(self):
        rng = random.Random(31)
        p3 = make_pattern("star", 2)
        bip = Bipartition(frozenset({1, 2}), frozenset({0}))
        poset = poset_from_bipartite(p3, bip.side_a)
        checked = 0
        for seed in range(200):
            pair_rng = random.Random(seed)
            masks = set()
            for m in range(1 << 5):
                if pair_rng.random() < 0.25:
                    masks.add(m)
                    masks.add(complement(m, 5))
            host = Family.of(5, masks)
            copy = contains_poset_copy(host, poset)
            if copy is None:
                continue
            try:
                image = poset_copy_to_graph_copy(copy, p3, bip, host)
            except CollisionError:
                continue
            assert check_witness(host, p3, image)
            checked += 1
        assert checked >= 20


class TestNamedAndText:
    def test_named_posets(self):
        assert named_poset("butterfly") == butterfly()
        assert named_poset("crown6") == crown(6)
        assert named_poset("chain3") == chain(3)
        assert named_poset("antichain4") == antichain(4)
        assert named_poset("V") == v_poset()
        assert named_poset("K2,1,3") == complete_three_level(2, 3)
        with pytest.raises(ValueError):
            named_poset("hexagon")

    @pytest.mark.parametrize(
        "name, message",
        [
            ("K,1,3", "unknown poset name 'K,1,3'"),
            ("K2,1,", "unknown poset name 'K2,1,'"),
            ("K2,1,3x", "unknown poset name 'K2,1,3x'"),
            ("chain\u0663", "unknown poset name 'chain\u0663'"),
            ("K\u0662,1,3", "unknown poset name 'K\u0662,1,3'"),
            ("crown18", "poset size must be 1..16"),
        ],
    )
    def test_malformed_names_are_refused_by_name(self, name, message):
        with pytest.raises(ValueError) as caught:
            named_poset(name)
        assert str(caught.value) == message

    def test_text_round_trip(self):
        for poset in (butterfly(), chain(4), complete_three_level(2, 2)):
            assert poset_from_text(poset_to_text(poset)) == poset

    @pytest.mark.parametrize(
        "text, message",
        [
            ("e 3 9\n0 < 1\n", "line 1: expected a 'e <count>' header, got 'e 3 9'"),
            ("e 3\n0 < 1 extra\n", "line 2: cannot read '0 < 1 extra'"),
            ("e 3\n0 < 1\n\n1 < 2 < 0\n", "line 4: cannot read '1 < 2 < 0'"),
            ("e 3\n0 < 5\n", "line 2: '0 < 5' has a value outside 0..2"),
            ("e 3\n0 < 1\n2 < 2\n", "line 3: reflexive relation at 2"),
            ("\ne 0\n", "line 2: poset size must be 1..16"),
            ("e 17\n0 < 1\n", "line 1: poset size must be 1..16"),
            # a cycle is named at the line that closes it
            ("e 3\n0 < 1\n1 < 0\n", "line 3: relation (1,0) closes a cycle"),
            ("e 4\n0 < 1\n1 < 2\n2 < 3\n3 < 0\n", "line 5: relation (3,0) closes a cycle"),
        ],
        ids=[
            "header",
            "token",
            "width",
            "range",
            "reflexive",
            "size",
            "size-before-relations",
            "two-line-cycle",
            "four-cycle",
        ],
    )
    def test_text_errors_name_the_line(self, text, message):
        with pytest.raises(ValueError) as info:
            poset_from_text(text)
        assert str(info.value) == message

    def test_random_cycles_are_named_at_their_first_cyclic_prefix(self):
        rng = random.Random(12)
        for _ in range(300):
            size = rng.randint(2, 6)
            pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(1, 9))]
            pairs = [(p, q) for p, q in pairs if p != q]
            text = f"e {size}\n" + "".join(f"{p} < {q}\n" for p, q in pairs)
            for end in range(1, len(pairs) + 1):
                closure = transitive_closure(size, pairs[:end])
                if any(closure[p] >> p & 1 for p in range(size)):
                    with pytest.raises(ValueError, match=f"^line {end + 1}: "):
                        poset_from_text(text)
                    break
            else:
                assert poset_from_text(text).above == tuple(transitive_closure(size, pairs))

    def test_closure_on_load(self):
        p = poset_from_text("e 3\n0 < 1\n1 < 2\n")
        assert p.less(0, 2)
