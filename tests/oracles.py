"""Oracles shared by the test modules: the union of boxes, and the
skeleton built geometrically, level by level, from a region's walls.

The library read the skeleton this way before the nerve's clique walk
(`nervecontract._strata`) took its volumes off the partition's strata;
the tests keep it as the walk's oracle."""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from cubecolor.chains import INTEGER, MOD2, BoxCell, RectChain, _canonical_terms, boundary


def union_normalize(boxes) -> list[BoxCell]:
    """Rewrite a family of same-dimension boxes as non-overlapping boxes
    covering the same set.  The integer canonical form cuts the family
    into disjoint boxes, each covered a positive number of times; mod 2
    those add up to their union, which the second canonical form merges
    into the same maximal boxes as any other cut of that set."""
    boxes = list(boxes)
    d, k = (boxes[0].d, boxes[0].k) if boxes else (0, 0)
    covered = _canonical_terms(INTEGER, ((b, 1) for b in boxes), d, k)
    return list(_canonical_terms(MOD2, ((b, 1) for b in covered), d, k))


def skeleton_volumes(chain: RectChain) -> list[Fraction]:
    """Exact volumes of every codimension-k skeleton of the region carried
    by a d-chain, indexed by k = 0..d.

    The skeleton is geometric: codimension 1 is the topological boundary
    of the region (internal walls between its boxes are not faces of the
    region), and each deeper level is the singular set of the previous
    one — the union of pairwise intersections of its non-coflat pieces.
    At k = d the result counts the corner points, each once.  k = 0 is
    the volume of the chain itself.

    The skeleton is taken relative to the cube boundary, like every other
    object in the pipeline: faces supported inside a facet of the cube
    are dropped.  Its walls are the cells of the relative boundary.
    """
    # only the relative skeleton obeys g(d,k): a clipped cell's absolute one exceeds it
    walls = list(boundary(chain, relative=True).terms)
    return [chain.volume(), *skeleton_from_walls(walls, chain.d, chain.den)]


def skeleton_from_walls(walls: list[BoxCell], d: int, den: int) -> list[Fraction]:
    """Volumes of the codimension-k skeleton, k = 1..d, of a d-region whose
    relative boundary is the union of the (d-1)-cells `walls`, over `den`.

    The walls must overlap only in measure zero; then their volumes add up
    exactly at k = 1.  Every deeper level is built once from the one above
    it by `bends`, and comes out of union_normalize, so it depends only on
    the set the walls cover, not on how they cut it; at k = d the pieces
    are points, each counted once.  Relative needs no check below k = 1:
    every fixed coordinate of a deeper piece is the fixed coordinate of a
    wall, which lies strictly inside (0, 1), as no wall lies in the cube
    boundary.

    A part's pair faces F(i, j) are such walls: eq2 at (i,) says that they
    sum to the boundary of C_i mod 2, modulo the cube boundary, and faces
    of distinct pairs meet only in measure zero (a (d-1)-piece common to
    three cells of a tiling would leave one of them overlapping another).
    """
    pieces = walls
    volumes = [Fraction(sum(b.volume() for b in pieces), den ** (d - 1))]
    for target in range(d - 2, -1, -1):
        found = bends(pieces)
        pieces = list(dict.fromkeys(found)) if target == 0 else union_normalize(found)
        volumes.append(Fraction(sum(b.volume() for b in pieces), den**target))
    return volumes


def bends(pieces: list[BoxCell]) -> list[BoxCell]:
    """The intersections of dimension k-1 of the pairs of k-pieces that
    lie on different planes, each pair once.

    Two pieces fixed on the same axes are coflat, which do not bend, or
    apart on a fixed coordinate.  Otherwise call their patterns (sets of
    fixed axes) P and Q.  The free axes of the intersection lie among the
    k - |free(P) minus free(Q)| free axes the two share, so dimension k-1
    needs exactly one axis `a` that P spans and Q fixes; as both span k
    axes, there is then exactly one axis `b` that Q spans and P fixes.
    Closed boxes meet exactly when their intervals meet on every axis:
    the shared fixed coordinates are equal, Q's coordinate on `a` lies in
    P's interval there, P's coordinate on `b` lies in Q's interval, and
    the shared free intervals meet, each with positive length for the
    intersection to keep dimension k-1.

    So per pattern pair Q's pieces are keyed on their shared fixed
    coordinates and sorted on `a`, and each P piece bisects its interval
    on `a` into its key's list; the remaining conditions are tested on
    what the bisect returns.
    """
    d = pieces[0].d if pieces else 0
    by_mask: dict[int, list[BoxCell]] = {}
    for c in pieces:
        mask = sum(1 << x for x, (lo, hi) in enumerate(c) if lo < hi)
        by_mask.setdefault(mask, []).append(c)
    out = []
    masks = sorted(by_mask)
    for p, q in [(p, q) for i, p in enumerate(masks) for q in masks[i + 1 :]]:
        only_p, only_q = p & ~q, q & ~p
        if only_p & (only_p - 1):  # more than one axis each way: too thin
            continue
        a, b = only_p.bit_length() - 1, only_q.bit_length() - 1
        fixed = [x for x in range(d) if not (p | q) >> x & 1]
        shared = [x for x in range(d) if (p & q) >> x & 1]
        index: dict[tuple, tuple[list, list]] = {}  # shared fixed coordinates -> Q sorted on a
        for eq in sorted(by_mask[q], key=lambda e: e[a][0]):
            coords, members = index.setdefault(tuple([eq[x][0] for x in fixed]), ([], []))
            coords.append(eq[a][0])
            members.append(eq)
        for ep in by_mask[p]:
            found = index.get(tuple([ep[x][0] for x in fixed]))
            if found is None:
                continue
            coords, members = found
            lo, hi = ep[a]
            at = ep[b][0]
            for eq in members[bisect_left(coords, lo) : bisect_right(coords, hi)]:
                blo, bhi = eq[b]
                if not blo <= at <= bhi:
                    continue
                ext = list(ep)  # already P's fixed coordinates, `b` included
                ext[a] = eq[a]
                for x in shared:
                    (plo, phi), (qlo, qhi) = ep[x], eq[x]
                    xlo = plo if plo > qlo else qlo
                    xhi = phi if phi < qhi else qhi
                    if xlo >= xhi:
                        break
                    ext[x] = (xlo, xhi)
                else:
                    out.append(BoxCell._from_valid(ext))
    return out


def pair_face_walls(nrv, pid) -> list[BoxCell]:
    """The cells of the pair faces F(pid, j) of a nerve: part pid's walls."""
    return [c for t in nrv.cofaces.get((pid,), []) for c in nrv.faces[t].terms]
