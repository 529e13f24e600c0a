"""Finite trees, characteristic functions, and generic choice systems.

Trees are encoded by a parent map, which makes the chain-interval
property structural: every node walks up to the bottom along a unique
path.  Choice systems live on arbitrary finite posets (the counting
arguments use the product of a tree with a two-element chain, which is
not a tree), with compatibility relations on covering pairs.  All fiber
and smoothness checks are brute force over the full downset lattice,
bounded at desk scale.
"""

from __future__ import annotations

import itertools

from treeval.errors import ParseError, PreconditionError, ResourceBoundError

MAX_POSET_SIZE = 12
MAX_CHOICE_SET = 16


class FiniteTree:
    """Finite meet-semilattice with bottom whose intervals are chains."""

    __slots__ = ("nodes", "bottom", "parent", "_depth")

    def __init__(self, bottom: str, parent: dict[str, str]):
        nodes = {bottom} | set(parent) | set(parent.values())
        if bottom in parent:
            raise ValueError("bottom must not have a parent")
        self.bottom = bottom
        self.nodes = frozenset(nodes)
        self.parent = dict(parent)
        depth = {bottom: 0}

        def resolve(n, seen):
            if n in depth:
                return depth[n]
            if n in seen:
                raise ValueError(f"cycle through {n!r}")
            seen.add(n)
            if n not in self.parent:
                raise ValueError(f"node {n!r} does not reach the bottom")
            d = resolve(self.parent[n], seen) + 1
            depth[n] = d
            return d

        for n in nodes:
            resolve(n, set())
        self._depth = depth

    @staticmethod
    def single(bottom: str = "_") -> "FiniteTree":
        return FiniteTree(bottom, {})

    @staticmethod
    def flat(bottom: str, leaves) -> "FiniteTree":
        return FiniteTree(bottom, {leaf: bottom for leaf in leaves})

    @staticmethod
    def chain(names) -> "FiniteTree":
        names = list(names)
        return FiniteTree(names[0], {b: a for a, b in zip(names, names[1:])})

    def depth(self, n: str) -> int:
        return self._depth[n]

    def _check(self, *ns):
        for n in ns:
            if n not in self.nodes:
                raise KeyError(f"unknown node {n!r}")

    def ancestors(self, n: str) -> list[str]:
        """Path from n down to the bottom, inclusive."""
        self._check(n)
        out = [n]
        while n != self.bottom:
            n = self.parent[n]
            out.append(n)
        return out

    def leq(self, a: str, b: str) -> bool:
        """a <= b in the tree order (bottom is least)."""
        self._check(a, b)
        return a in self.ancestors(b)

    def meet(self, a: str, b: str) -> str:
        """Deepest common ancestor."""
        self._check(a, b)
        pa = self.ancestors(a)
        in_pa = set(pa)
        for n in self.ancestors(b):
            if n in in_pa:
                return n
        return self.bottom

    def children(self, n: str) -> list[str]:
        self._check(n)
        return sorted(c for c, p in self.parent.items() if p == n)

    def nodes_sorted(self) -> list[str]:
        """All nodes, parents before children, lexicographic within depth."""
        return sorted(self.nodes, key=lambda n: (self._depth[n], n))

    def non_bottom(self) -> list[str]:
        return [n for n in self.nodes_sorted() if n != self.bottom]

    def branches(self) -> list["FiniteTree"]:
        """Subtrees rooted at the minimal non-bottom nodes."""
        out = []
        for root in self.children(self.bottom):
            sub = {}
            stack = [root]
            while stack:
                n = stack.pop()
                for c in self.children(n):
                    sub[c] = n
                    stack.append(c)
            out.append(FiniteTree(root, sub))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FiniteTree)
            and self.bottom == other.bottom
            and self.parent == other.parent
        )

    def __repr__(self):
        return f"FiniteTree({self.bottom!r}, {self.parent!r})"

    def to_text(self) -> str:
        lines = [f"{c}<{p}" for c, p in sorted(self.parent.items())]
        return "\n".join(lines) if lines else self.bottom

    @staticmethod
    def from_text(text: str, bottom: str = "_") -> "FiniteTree":
        parent = {}
        stripped = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if stripped == [bottom]:
            return FiniteTree.single(bottom)
        for ln in stripped:
            if "<" not in ln:
                raise ParseError(f"bad tree line {ln!r}")
            child, par = (part.strip() for part in ln.split("<", 1))
            if child in parent:
                raise ParseError(f"node {child!r} has two parents")
            parent[child] = par
        return FiniteTree(bottom, parent)


class CharFunction:
    """Residue-characteristic tags per node: 0 or a prime, monotone upward."""

    __slots__ = ("tree", "assignment")

    def __init__(self, tree: FiniteTree, assignment: dict[str, int]):
        if set(assignment) != set(tree.nodes):
            raise ValueError("assignment must cover exactly the tree nodes")
        for n in tree.non_bottom():
            p_here = assignment[n]
            p_par = assignment[tree.parent[n]]
            if p_par != 0 and p_here != p_par:
                raise ValueError(
                    f"characteristic must persist upward: {tree.parent[n]!r} -> {n!r}"
                )
        self.tree = tree
        self.assignment = dict(assignment)

    def __getitem__(self, n: str) -> int:
        return self.assignment[n]

    def minimal_positive_nodes(self) -> list[str]:
        """The minimal nodes with nonzero characteristic, in canonical order."""
        out = []
        for n in self.tree.nodes_sorted():
            if self.assignment[n] == 0:
                continue
            par = self.tree.parent.get(n)
            if par is None or self.assignment[par] == 0:
                out.append(n)
        return out

    def to_text(self) -> str:
        return "\n".join(
            f"{n}={self.assignment[n]}" for n in self.tree.nodes_sorted()
        )

    @staticmethod
    def from_text(tree: FiniteTree, text: str) -> "CharFunction":
        assignment = {}
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ParseError(f"bad characteristic line {ln!r}")
            n, v = ln.split("=", 1)
            assignment[n.strip()] = int(v)
        return CharFunction(tree, assignment)


class Poset:
    """Finite poset given by elements and a strict order relation."""

    __slots__ = ("elements", "below")

    def __init__(self, elements, pairs):
        """pairs: iterable of (a, b) meaning a < b; transitively closed here."""
        self.elements = tuple(sorted(set(elements), key=str))
        less = {e: set() for e in self.elements}
        for a, b in pairs:
            if a not in less or b not in less:
                raise ValueError(f"unknown element in pair ({a!r}, {b!r})")
            less[b].add(a)
        changed = True
        while changed:
            changed = False
            for b in self.elements:
                for a in list(less[b]):
                    new = less[a] - less[b]
                    if new:
                        less[b] |= new
                        changed = True
        for e in self.elements:
            if e in less[e]:
                raise ValueError("order relation has a cycle")
        self.below = {e: frozenset(s) for e, s in less.items()}

    def lt(self, a, b) -> bool:
        return a in self.below[b]

    def leq(self, a, b) -> bool:
        return a == b or self.lt(a, b)

    def covers(self) -> list[tuple]:
        """All pairs (x, y) with x covering y (x > y, nothing between)."""
        out = []
        for x in self.elements:
            for y in self.below[x]:
                if not any(self.lt(y, z) and self.lt(z, x) for z in self.elements):
                    out.append((x, y))
        return sorted(out, key=str)

    def is_downset(self, subset) -> bool:
        s = set(subset)
        return all(self.below[x] <= s for x in s)

    def downsets(self) -> list[frozenset]:
        """All downward-closed subsets (desk scale, exponential)."""
        if len(self.elements) > MAX_POSET_SIZE:
            raise ResourceBoundError(
                f"poset size {len(self.elements)} exceeds {MAX_POSET_SIZE}"
            )
        out = []
        for r in range(len(self.elements) + 1):
            for combo in itertools.combinations(self.elements, r):
                if self.is_downset(combo):
                    out.append(frozenset(combo))
        return out

    def maximal_in(self, subset) -> list:
        s = set(subset)
        return sorted(
            (x for x in s if not any(self.lt(x, y) for y in s)), key=str
        )

    def topological(self, subset=None) -> list:
        """Elements ordered with smaller elements first, ties by name."""
        pool = self.elements if subset is None else sorted(subset, key=str)
        return sorted(pool, key=lambda e: (len(self.below[e] & set(pool)), str(e)))


class ChoiceSystem:
    """Per-element finite sets with compatibility relations on covers."""

    __slots__ = ("poset", "sets", "relations")

    def __init__(self, poset: Poset, sets: dict, relations: dict):
        """relations: {(x, y) on a cover pair x > y: set of (a, b) pairs}."""
        cover_set = set(poset.covers())
        for pair in relations:
            if pair not in cover_set:
                raise ValueError(f"{pair!r} is not a covering pair")
        for x in poset.elements:
            if x not in sets:
                raise ValueError(f"no choice set for {x!r}")
            if len(sets[x]) > MAX_CHOICE_SET:
                raise ResourceBoundError(
                    f"choice set at {x!r} exceeds {MAX_CHOICE_SET}"
                )
        for (x, y), rel in relations.items():
            for a, b in rel:
                if a not in sets[x] or b not in sets[y]:
                    raise ValueError(f"relation at {(x, y)!r} mentions unknown members")
        self.poset = poset
        self.sets = {x: tuple(sorted(sets[x], key=str)) for x in poset.elements}
        self.relations = {pair: frozenset(rel) for pair, rel in relations.items()}

    def compatible(self, x, a, y, b) -> bool:
        """Whether choosing a at x and b at y is allowed (x covers y)."""
        rel = self.relations.get((x, y))
        if rel is None:
            return True
        return (a, b) in rel

    def partial_choices(self, downset) -> list[dict]:
        """All admissible choice functions on a downward-closed subset.

        Deterministic order: lexicographic in the topological element
        order and the canonical order of each choice set.
        """
        downset = frozenset(downset)
        if not self.poset.is_downset(downset):
            raise PreconditionError("subset is not downward closed")
        order = self.poset.topological(downset)
        cover_list = [
            (x, y) for (x, y) in self.poset.covers() if x in downset and y in downset
        ]
        out = []

        def rec(i, assign):
            if i == len(order):
                out.append(dict(assign))
                return
            x = order[i]
            for a in self.sets[x]:
                ok = True
                for cx, cy in cover_list:
                    if cx == x and cy in assign:
                        if not self.compatible(x, a, cy, assign[cy]):
                            ok = False
                            break
                    elif cy == x and cx in assign:
                        if not self.compatible(cx, assign[cx], x, a):
                            ok = False
                            break
                if ok:
                    assign[x] = a
                    rec(i + 1, assign)
                    del assign[x]

        rec(0, {})
        return out

    def fiber_sizes(self, downset_big, downset_small) -> list[int]:
        """Sizes of the fibers of restriction, indexed by the small choices."""
        big = frozenset(downset_big)
        small = frozenset(downset_small)
        if not small <= big:
            raise PreconditionError("small subset must be contained in the big one")
        if not self.poset.is_downset(big) or not self.poset.is_downset(small):
            raise PreconditionError("both subsets must be downward closed")
        big_choices = self.partial_choices(big)
        small_choices = self.partial_choices(small)
        counts = []
        for g in small_choices:
            n = sum(
                1
                for f in big_choices
                if all(f[x] == g[x] for x in small)
            )
            counts.append(n)
        return counts

    def check_smooth_at(self, x) -> int | None:
        """The constant fiber size at x over all admissible downsets, or None.

        Quantifies over every downward-closed subset containing x as a
        maximal element, the only checkable reading of the definition
        inside a fixed finite poset.
        """
        if x not in self.poset.elements:
            raise KeyError(f"unknown element {x!r}")
        n = None
        for ds in self.poset.downsets():
            if x not in ds or x not in self.poset.maximal_in(ds):
                continue
            sizes = self.fiber_sizes(ds, ds - {x})
            for s in sizes:
                if s <= 0:
                    return None
                if n is None:
                    n = s
                elif s != n:
                    return None
        return n


def smoothness_fiber_identity(system: ChoiceSystem, big, small):
    """If the system is smooth at each element of big - small, all fibers of
    the restriction are constant and equal to the product of the counts.

    Returns (holds, fiber_sizes, expected_product_or_None).
    """
    big, small = frozenset(big), frozenset(small)
    product = 1
    for x in big - small:
        n = system.check_smooth_at(x)
        if n is None:
            return None, system.fiber_sizes(big, small), None
        product *= n
    sizes = system.fiber_sizes(big, small)
    holds = all(s == product for s in sizes)
    return holds, sizes, product
