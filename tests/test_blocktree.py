"""Block tree structure, selection and scoring."""

import random

import pytest

from btlab.blocktree import (GENESIS_ID, Block, BlockTree, DomainError,
                             SelectionPolicy, common_prefix, is_prefix, mcps,
                             prefix_comparable)


def build(*edges):
    """Tree from (id, parent) pairs, inserted in order."""
    tree = BlockTree()
    for block_id, parent in edges:
        tree.insert(Block(id=block_id, parent_id=parent))
    return tree


# -- construction and raw structure -------------------------------------------


def test_fresh_tree_holds_exactly_genesis():
    tree = BlockTree()
    assert len(tree) == 1
    assert GENESIS_ID in tree
    assert tree.read() == (GENESIS_ID,)


def test_read_on_genesis_only_tree_returns_one_block_chain():
    assert BlockTree().read() == ("b0",)


def test_insert_rejects_duplicate_unknown_parent_and_second_genesis():
    tree = build(("a", "b0"))
    with pytest.raises(DomainError):
        tree.insert(Block(id="a", parent_id="b0"))
    with pytest.raises(DomainError):
        tree.insert(Block(id="x", parent_id="nowhere"))
    with pytest.raises(DomainError):
        tree.insert(Block(id="g2", parent_id=None))


def test_every_tree_roots_at_the_one_genesis():
    assert BlockTree().block(GENESIS_ID) == Block(GENESIS_ID, parent_id=None)
    with pytest.raises(TypeError):
        BlockTree(Block(id="g"))        # a tree takes no root of its own


def test_chain_to_walks_root_to_block():
    tree = build(("a", "b0"), ("b", "a"), ("c", "b"))
    assert tree.chain_to("c") == ("b0", "a", "b", "c")


def test_fork_count_is_child_width():
    tree = build(("a", "b0"), ("b", "b0"), ("c", "b0"), ("d", "a"))
    assert tree.fork_count("b0") == 3
    assert tree.fork_count("a") == 1
    assert tree.fork_count("d") == 0
    assert tree.max_fork_count() == 3


# -- prefix algebra --------------------------------------------------------------


def test_prefix_relation_on_id_tuples():
    assert is_prefix((), ("b0",))
    assert is_prefix(("b0",), ("b0", "a"))
    assert is_prefix(("b0", "a"), ("b0", "a"))
    assert not is_prefix(("b0", "a"), ("b0",))
    assert not is_prefix(("b0", "x"), ("b0", "a", "b"))
    assert prefix_comparable(("b0",), ("b0", "a"))
    assert not prefix_comparable(("b0", "a"), ("b0", "b"))


def test_common_prefix_stops_at_first_divergence():
    assert common_prefix(("b0", "a", "b"), ("b0", "a", "c")) == ("b0", "a")
    assert common_prefix(("b0",), ("b0", "a")) == ("b0",)


def test_score_counts_genesis():
    tree = build(("a", "b0"), ("b", "a"))
    assert len(tree.read()) == 3


def test_mcps_of_diverging_chains_scores_shared_part():
    a = ("b0", "1", "2", "4")
    b = ("b0", "1", "3")
    assert mcps(a, b) == 2
    assert mcps(a, a) == 4


def test_mcps_requires_a_shared_genesis():
    with pytest.raises(DomainError):
        mcps(("b0", "a"), ("g9", "a"))
    with pytest.raises(DomainError):
        mcps((), ("b0",))


def test_mcps_of_prefix_comparable_chains_is_min_score():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 8)
        longer = tuple(["b0"] + [f"x{i}" for i in range(n)])
        cut = rng.randint(1, len(longer))
        shorter = longer[:cut]
        assert mcps(shorter, longer) == min(len(shorter), len(longer))


def test_mcps_is_the_length_of_the_common_prefix():
    # mcps bisects on slice equality; common_prefix walks the ids one by one
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chain = st.lists(st.sampled_from("ab"), max_size=12).map(
        lambda ids: (GENESIS_ID, *ids))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(chain, chain)
    def agree(a, b):
        # a drawn pair, equal chains, every prefix of a, and a against a copy
        # that diverges at each position past genesis, as long or shorter
        pairs = [(a, b), (a, a)] + [(a[:n], a) for n in range(1, len(a) + 1)]
        pairs += [(a, a[:n] + tuple(x + "'" for x in a[n:])) for n in range(1, len(a))]
        pairs += [(a, a[:n] + ("c",)) for n in range(1, len(a) + 1)]
        for x, y in pairs:
            assert mcps(x, y) == mcps(y, x) == mcps(list(x), y) == len(common_prefix(x, y))
    agree()


def test_the_least_pairwise_mcps_is_the_common_prefix_of_all_chains():
    # eventual prefix decides an after set by this number, one mcps per chain
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chain = st.lists(st.sampled_from("abc"), max_size=5).map(
        lambda ids: (GENESIS_ID, *ids))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(chain, min_size=2, max_size=5), st.integers(0, 4),
                      st.booleans())
    def agree(chains, at, nested):
        if nested:                       # chains[at] is a prefix of all the others
            at %= len(chains)
            chains = [c if k == at else chains[at] + c[1:] for k, c in enumerate(chains)]
        least = min(mcps(a, b) for k, a in enumerate(chains) for b in chains[k + 1:])
        common = max(n for n in range(1, min(map(len, chains)) + 1)
                     if len({c[:n] for c in chains}) == 1)
        assert least == common
        if nested:
            assert least == len(chains[at])
    agree()


# -- selection ---------------------------------------------------------------------


def test_longest_chain_wins():
    tree = build(("a", "b0"), ("b", "a"), ("z", "b0"))
    assert tree.read() == ("b0", "a", "b")


def test_score_tie_breaks_by_largest_id_sequence():
    tree = build(("a", "b0"), ("z", "b0"))
    assert tree.read() == ("b0", "z")
    tree = build(("p1-1", "b0"), ("p0-1", "b0"), ("p1-2", "p1-1"), ("p0-2", "p0-1"))
    assert tree.read() == ("b0", "p1-1", "p1-2")


def test_selection_is_deterministic_under_insertion_order():
    rng = random.Random(11)
    edges = [("a", "b0"), ("b", "b0"), ("c", "a"), ("d", "b"), ("e", "b")]
    baseline = None
    for _ in range(30):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        tree = BlockTree()
        pending = shuffled[:]
        while pending:  # honor parent-before-child across shuffles
            rest = []
            for block_id, parent in pending:
                if parent in tree:
                    tree.insert(Block(id=block_id, parent_id=parent))
                else:
                    rest.append((block_id, parent))
            pending = rest
        got = tree.read()
        baseline = baseline or got
        assert got == baseline


def test_the_selection_rule_is_fixed():
    # read() and append(b) take no selection argument: every tree selects the
    # longest chain
    tree = build(("a", "b0"), ("b", "a"), ("c", "b"), ("z", "b0"), ("y", "z"))
    assert tree.read() == ("b0", "a", "b", "c")
    assert SelectionPolicy().choose(tree) == tree.read()
    with pytest.raises(TypeError):
        tree.read(SelectionPolicy())
    with pytest.raises(TypeError):
        tree.append(Block(id="d"), SelectionPolicy())


def leaf_chains(tree):
    return [tree.chain_to(leaf) for leaf in tree.leaves()]


def longest_by_rebuild(tree):
    """Reference oracle: rebuild every root-to-leaf chain and take the best."""
    return max(leaf_chains(tree), key=lambda c: (len(c), c))


def bushy_edges(rng, size):
    """(id, parent) pairs of a wide, shallow tree: many equal-depth branches.

    Ids are random, so their order is unrelated to insertion order or depth.
    """
    ids = rng.sample(range(10 * size), size)
    nodes, edges = [("b0", 1)], []
    for n in ids:
        top = max(d for _, d in nodes)
        parent, depth = rng.choice([x for x in nodes if x[1] >= top - 2])
        block_id = f"x{n}"
        edges.append((block_id, parent))
        nodes.append((block_id, depth + 1))
    return edges


def shuffled_parent_first(rng, edges):
    """A random insertion order in which every parent precedes its children."""
    pending, placed, order = edges[:], {"b0"}, []
    while pending:
        edge = rng.choice([e for e in pending if e[1] in placed])
        pending.remove(edge)
        placed.add(edge[0])
        order.append(edge)
    return order


@pytest.mark.parametrize("seed", range(12))
def test_incremental_selection_matches_the_full_rebuild(seed):
    rng = random.Random(seed)
    edges = bushy_edges(rng, rng.randint(10, 60))
    tree = BlockTree()
    for block_id, parent in shuffled_parent_first(rng, edges):
        tree.insert(Block(id=block_id, parent_id=parent))
        assert tree.read() == longest_by_rebuild(tree)
    back = BlockTree()                    # the same tree, grown in another order
    for block_id, parent in shuffled_parent_first(rng, edges):
        back.insert(Block(id=block_id, parent_id=parent))
    assert back.blocks() == tree.blocks()
    assert back.read() == longest_by_rebuild(back) == tree.read()


# -- append/read transitions -----------------------------------------------------------


def test_append_attaches_at_selected_leaf_and_read_sees_it():
    tree = BlockTree()
    assert tree.append(Block(id="a"))
    assert tree.append(Block(id="b"))
    assert tree.read() == ("b0", "a", "b")
    assert tree.block("b").parent_id == "a"


def test_append_binds_parent_even_when_candidate_names_none():
    tree = build(("a", "b0"))
    tree.append(Block(id="c"))
    assert tree.block("c").parent_id == "a"


def test_append_refuses_duplicate_id():
    tree = BlockTree()
    assert tree.append(Block(id="a"))
    assert not tree.append(Block(id="a"))
    assert len(tree) == 2


def test_append_refuses_stale_parent_claim():
    tree = build(("a", "b0"), ("b", "a"))
    assert not tree.append(Block(id="x", parent_id="b0"))
    assert tree.append(Block(id="x", parent_id="b"))


def test_append_only_grows_monotonely():
    rng = random.Random(7)
    tree = BlockTree()
    sizes = [len(tree)]
    scores = [len(tree.read())]
    for i in range(60):
        tree.append(Block(id=f"n{i}"))
        sizes.append(len(tree))
        scores.append(len(tree.read()))
        assert sizes[-1] == sizes[-2] + 1
        assert scores[-1] >= scores[-2]
    assert scores[-1] == 61


def test_every_read_is_a_root_to_leaf_chain():
    rng = random.Random(3)
    for trial in range(25):
        tree = BlockTree()
        ids = [f"t{trial}-{i}" for i in range(rng.randint(1, 20))]
        for i, block_id in enumerate(ids):
            # half via append, half inserted at random parents to force forks
            if rng.random() < 0.5:
                tree.append(Block(id=block_id))
            else:
                parent = rng.choice(sorted(tree._blocks))
                tree.insert(Block(id=block_id, parent_id=parent))
        chain = tree.read()
        assert chain[0] == GENESIS_ID
        for parent, child in zip(chain, chain[1:]):
            assert tree.block(child).parent_id == parent
        assert tree.fork_count(chain[-1]) == 0
        best = max(len(c) for c in leaf_chains(tree))
        assert len(chain) == best

