"""Multi-obstacle cloud-chamber model.

A spherical wave emitted at the origin crosses a shell of randomly placed gas
atoms.  Each scattering is strongly forward-peaked, so a high-order wave in
which several atoms are excited survives only when those atoms are aligned
with the emitter.  Every aligned atom multiplies the unscattered spherical
flux by |C|^2 < 1, so a long enough chain extinguishes the spherical wave and
the chain direction becomes the observed linear track.  For one fixed atom
configuration the selected track is a pure function of the atom positions;
randomness only enters through the thermal placement of the atoms, and an
ensemble of configurations spreads its tracks isotropically.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import warnings
from typing import Optional

import numpy as np

from .mott import (
    _SPECIES_FIELDS,
    ATOM_DTYPE,
    MIN_DISTANCE_WIDTHS,
    ScatteringContext,
    _records,
    angular_amplitude,
    check_atoms,
    flux_free,
    normalization_c2_atoms,
)
from .numerics import Frozen, FrozenValue, RngStream, chi2_sf, dot, norm, ordered_ranges, unit

__all__ = [
    "ATOM_DTYPE",
    "AtomSpecies",
    "GasConfiguration",
    "AlignmentChain",
    "TrackResult",
    "IsotropyResult",
    "sample_gas",
    "cone_half_angle",
    "second_order_amplitude",
    "build_chains",
    "select_track",
    "off_chain_c2_product",
    "isotropy_experiment",
    "direction_bin",
    "save_configuration",
    "load_configuration",
]

# largest mean atom count sample_gas accepts.  select_track on 10^5 atoms, one
# thread of a 2-vCPU Xeon VM with AVX-512: 1.7 s and 86 MB max RSS for the README
# gas (k s = 10), 38 s and 531 MB at the widest cone that lists candidates
# (k s = 1.94); wider cones list every atom farther out, in O(n^2) time and
# O(n) memory (335 s and 82 MB at k s = 1.9).  A track run replaying the README
# gas's gas.json there peaks at 86 MB, as sampling it does (116 MB while the
# parse built a dict per atom)
MAX_EXPECTED_ATOMS = 100_000

# most configurations isotropy_experiment accepts.  The README gas ran 10^6 in 40 s on one CPU and 23-26 s
# on both of a 2-vCPU Xeon VM (17 and 10 s on a quieter day), 39 MB max RSS per process: time sets the guard
MAX_CONFIGS = 1_000_000

# cone wider than pi/6 means the forward peak is no longer narrow
WIDE_CONE_ANGLE = math.pi / 6.0

# chained far-field form needs the atoms many widths apart
SEPARATION_WIDTHS = 10.0

_JSON_KEYS = ("x", "y", "z", "s", "g0", "g1", "delta_e")


class AtomSpecies(FrozenValue):
    """Properties shared by every atom of the gas (the position is sampled)."""

    __slots__ = ("width", "g0", "g1", "delta_e")

    def __init__(self, width: float, g0: float, g1: float, delta_e: float = 0.0):
        check_atoms(width, g0, g1, delta_e)
        super().__init__(width, g0, g1, delta_e)

    def records(self, positions) -> np.ndarray:
        """ATOM_DTYPE records of this species, one per row of ``positions``."""
        return _records(positions, self.width, self.g0, self.g1, self.delta_e)


class GasConfiguration(Frozen):
    """One frozen microscopic state of the chamber gas.

    Atoms live in the shell inner_radius <= |a| <= chamber_radius; the
    exclusion zone around the emitter keeps every atom in the far field of
    the source.  ``atoms`` is a read-only 1-d ATOM_DTYPE array whose records
    pass ``check_atoms``, as ``mott.atom``'s do.  ``seed``/``stream_id`` record
    the stream that produced the sample, for provenance and replay.
    """

    __slots__ = ("atoms", "chamber_radius", "inner_radius", "seed", "stream_id")

    def __init__(self, atoms, chamber_radius: float, inner_radius: float, seed: int, stream_id: int = 0):
        # fresh records handed over read-only are kept; any other input is copied
        if not (isinstance(atoms, np.ndarray) and atoms.base is None and not atoms.flags.writeable):
            atoms = np.array(atoms if len(atoms) else np.empty(0, ATOM_DTYPE))
        if atoms.dtype != ATOM_DTYPE or atoms.ndim != 1:
            raise ValueError(f"atoms must be a 1-d ATOM_DTYPE array, got {atoms.dtype}{atoms.shape}")
        atoms.setflags(write=False)
        with np.errstate(all="ignore"):  # non-finite radii are reported below
            radii = np.sqrt(dot(atoms["position"], atoms["position"]))  # bits of norm(atom["position"])
        check_atoms(*(atoms[f] for f in _SPECIES_FIELDS), radius=radii)
        _check_shell(inner_radius, chamber_radius, float(atoms["width"].max(initial=0.0)))
        outside = ~((radii >= inner_radius) & (radii <= chamber_radius))
        if outside.any():
            i = int(np.argmax(outside))
            shell = f"[{inner_radius}, {chamber_radius}]"
            raise ValueError(f"atom {i}: radius must lie in the shell {shell}, got {atoms[i]}")
        super().__init__(atoms, chamber_radius, inner_radius, seed, stream_id)

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def _check_shell(inner_radius: float, chamber_radius: float, max_width: float) -> None:
    # the shell rules of a gas.  The second puts every atom of the shell as far
    # from the emitter as check_atoms asks, so sampled atoms need no check of their own
    if not (0.0 < inner_radius < chamber_radius):
        raise ValueError(
            f"need 0 < inner_radius < chamber_radius, got {inner_radius}, {chamber_radius}"
        )
    if inner_radius < MIN_DISTANCE_WIDTHS * max_width:
        raise ValueError(
            f"inner_radius must be >= {MIN_DISTANCE_WIDTHS:g} * max atom width,"
            f" got {inner_radius} < {MIN_DISTANCE_WIDTHS * max_width}"
        )


def _expected_atoms(density: float, inner_radius: float, chamber_radius: float, width: float) -> float:
    # mean atom count of a gas of atoms ``width`` wide, checked before any atom is drawn
    if density < 0.0:
        raise ValueError(f"density must be non-negative, got {density}")
    _check_shell(inner_radius, chamber_radius, width)
    try:
        volume = 4.0 * math.pi / 3.0 * (chamber_radius**3 - inner_radius**3)
    except OverflowError:  # a float cube overflows above ~5.6e102
        raise ValueError(f"shell volume overflows at chamber_radius {chamber_radius}") from None
    expected = density * volume
    if expected > MAX_EXPECTED_ATOMS:
        raise ValueError(f"expected atom count {expected:g} exceeds guard {MAX_EXPECTED_ATOMS:g}")
    return expected


def _draw_atoms(rng: RngStream, expected: float) -> tuple[np.ndarray, np.ndarray]:
    # the draws of one gas in their fixed order: the count, then all
    # direction normals, then all radius uniforms
    count = rng.poisson(expected) if expected > 0.0 else 0
    return rng.standard_normal(size=(count, 3)), rng.uniform(size=count)


def _shell_positions(normals, u, inner_radius: float, chamber_radius: float) -> np.ndarray:
    # row by row, so the rows of several gases at once have the bits of each gas alone
    radii = np.cbrt(inner_radius**3 + u * (chamber_radius**3 - inner_radius**3))
    return radii[:, None] * (normals / np.sqrt(dot(normals, normals))[:, None])


def sample_gas(
    density: float,
    inner_radius: float,
    chamber_radius: float,
    species: AtomSpecies,
    rng: RngStream,
) -> GasConfiguration:
    """Sample a Poisson gas of identical atoms, uniform in the shell volume.

    The atom count is Poisson with mean density * shell volume; positions are
    isotropic with radii uniform in volume.  Draw order is fixed (count, then
    all direction normals, then all radii), so a given stream reproduces the
    configuration bitwise.
    """
    expected = _expected_atoms(density, inner_radius, chamber_radius, species.width)
    atoms = species.records(_shell_positions(*_draw_atoms(rng, expected), inner_radius, chamber_radius))
    atoms.setflags(write=False)  # handed over: the gas keeps it without a copy
    return GasConfiguration(
        atoms=atoms,
        chamber_radius=chamber_radius,
        inner_radius=inner_radius,
        seed=rng.seed,
        stream_id=rng.stream_id,
    )


def cone_half_angle(ctx: ScatteringContext, s: float, envelope_drop: float = 0.5) -> float:
    """Half-angle of the forward scattering cone for coupling width ``s``.

    The scattered intensity envelope is exp(-q^2 s^2 / 2); the cone edge is
    where it has dropped by exp(-envelope_drop), i.e. q s = sqrt(2 drop),
    giving theta_c = 2 arcsin(sqrt(2 drop) / (2 k s)).  The default drop of
    1/2 puts the edge at q s = 1.  Warns when the cone is wider than pi/6,
    where the single-track picture degrades.
    """
    if envelope_drop <= 0.0:
        raise ValueError(f"envelope_drop must be positive, got {envelope_drop}")
    two_ks = 2.0 * ctx.k * s  # 0 once k s underflows, which leaves no cone either
    x = math.sqrt(2.0 * envelope_drop) / two_ks if two_ks > 0.0 else math.inf
    if x >= 1.0:
        raise ValueError(
            f"no forward cone: k*s = {ctx.k * s:g} too small for envelope drop {envelope_drop:g}"
        )
    theta_c = 2.0 * math.asin(x)
    if theta_c > WIDE_CONE_ANGLE:
        warnings.warn(
            f"wide-cone regime: half-angle {theta_c:.3f} rad exceeds {WIDE_CONE_ANGLE:.3f}",
            stacklevel=2,
        )
    return theta_c


def second_order_amplitude(ctx: ScatteringContext, atom_a: np.void, atom_b: np.void) -> complex:
    """Chained twice-inelastic amplitude: excite atom a, then atom b (ATOM_DTYPE records).

    The forward-peaked inelastic wave from atom a propagates to atom b and
    scatters once more there,

        I_1^{(a)}(theta_ab) * (e^{ik|b-a|} / |b-a|) * sqrt(2 pi) g1_b s_b^3,

    with theta_ab the angle between the emitter->a direction and the a->b
    direction.  The last factor is the forward (q = 0) inelastic scattering
    strength of atom b.  The full double volume integral is not computed;
    this chained form keeps the essential feature that both atoms are excited
    only when b lies in the narrow forward cone of a.
    """
    a, b = atom_a["position"], atom_b["position"]
    rel = b - a
    d = norm(rel)
    if not norm(b) > norm(a):
        raise ValueError(
            f"atom b must be farther from the emitter than atom a, got |b|={norm(b)!r}"
            f" <= |a|={norm(a)!r}"
        )
    if d < SEPARATION_WIDTHS * max(float(atom_a["width"]), float(atom_b["width"])):
        raise ValueError(
            f"atoms too close for the chained far-field form: |b-a| = {d!r}"
        )
    theta_ab = float(np.arccos(np.clip(np.dot(unit(a), rel / d), -1.0, 1.0)))
    first = angular_amplitude(ctx, atom_a, 1, theta_ab)
    forward_b = math.sqrt(2.0 * math.pi) * float(atom_b["g1"]) * float(atom_b["width"]) ** 3
    return complex(first * np.exp(1j * ctx.k * d) / d * forward_b)


class AlignmentChain(Frozen):
    """Successive atoms each inside the forward cone of the chain head.

    ``indices`` are atom indices into one GasConfiguration, radii strictly
    increasing; ``direction`` is the emitter-to-head unit vector that serves
    as the cone axis for the whole chain.
    """

    __slots__ = ("indices", "direction")

    def __init__(self, indices: tuple[int, ...], direction: np.ndarray):
        if not indices:
            raise ValueError("a chain has at least its head atom")
        super().__init__(indices, direction)

    @property
    def n(self) -> int:
        return len(self.indices)

    @property
    def head(self) -> int:
        return self.indices[0]


class TrackResult(Frozen):
    """Deterministic outcome of one chamber configuration."""

    __slots__ = ("direction", "chain", "surviving_spherical_flux", "c2_per_step")

    def __init__(
        self, direction: np.ndarray, chain: AlignmentChain, surviving_spherical_flux: float, c2_per_step: float
    ):
        super().__init__(direction, chain, surviving_spherical_flux, c2_per_step)

    @property
    def flux_ratio(self) -> float:
        return self.c2_per_step**self.chain.n


# atom pairs tested at once when listing chain candidates, and candidates of
# the chains grown at once: enough that numpy's per-call cost stays small,
# few enough that the arrays (about 1 MB) stay below a track run's peak memory
CANDIDATE_PAIRS = 2**14

# the candidate cone is wider than the chain cone by this much in cos: more
# than the rounding of the chain predicate and of the direction dot product for
# atoms over ~1e-5 chamber radii apart, and too little to add measurable work
CANDIDATE_COS_SLACK = 1e-10


def _gas_of_atoms(offsets: np.ndarray) -> np.ndarray:
    # index of the gas that owns each row of a segmented gas
    return np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


def _cone_candidates(
    radii: np.ndarray, dirs: np.ndarray, gas: np.ndarray, cos_m: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each atom with the atoms of its gas that may join a chain it heads.

    ``gas`` numbers the gas of each atom, in ascending order.  Atom j is a
    candidate of head h when it belongs to the same gas, lies no nearer, its
    direction is within arccos(cos_m) of h's, and so is the step h -> j that
    the two radii and that cosine give, up to 1e-6 outer radii (ten times
    its rounding).  The lists come as CSR arrays: members[start[h]:end[h]]
    holds h and its candidates in ascending index, 8 bytes per pair.  No
    component of d_j - d_h then exceeds the chord ``reach`` of that angle,
    so once the atoms are sorted by (gas, z band ``reach`` wide, x), atom i
    pairs only with those after it in its band and those in the band above,
    within ``reach`` of its x.  The pairs are tested CANDIDATE_PAIRS at a
    time from the inner atom (both ways at equal radii), with no BLAS call.
    """
    n = len(dirs)
    # the 1e-7 covers the rounding of the dot product inside the square root
    # and of the key, which stays below 2^26 for 64 gases at any cone
    reach = math.sqrt(2.0 * (1.0 - cos_m)) + 1e-7
    n_bands = int(2.0 / reach)
    band = np.minimum(((dirs[:, 2] + 1.0) * (0.5 * n_bands)).astype(np.intp), n_bands - 1)
    # bands lie 4 apart on the key and x spans 2; each gas ends in an empty band
    key = 4.0 * (gas * (n_bands + 1) + band) + dirs[:, 0]
    by_key = np.argsort(key)
    key, r, (x, y, z) = key[by_key], radii[by_key], dirs[by_key].T  # atoms in key order
    # range k = 2 i + (0, 1) of atom i: pairs (i, shift[k] + p), ends[k] - count[k] <= p < ends[k]
    shift = np.stack([np.arange(1, n + 1), np.searchsorted(key, key + (4.0 - reach))], 1).ravel()
    count = np.searchsorted(key, key[:, None] + [reach, 4.0 + reach], "right").ravel() - shift
    ends = np.cumsum(count)
    shift += count - ends
    cuts = np.searchsorted(ends, np.arange(0, ends[-1], CANDIDATE_PAIRS), "right").tolist()
    cuts = [*dict.fromkeys(cuts), len(ends)]  # a range longer than a batch is a batch
    keys = [np.arange(n) * (n + 1)]  # every head is its own candidate
    for k0, k1 in zip(cuts, cuts[1:]):
        each = count[k0:k1]
        i = np.repeat(np.arange(k0, k1) >> 1, each)
        j = np.repeat(shift[k0:k1], each) + np.arange(ends[k0] - each[0], ends[k1 - 1])
        cos = x[i] * x[j] + y[i] * y[j] + z[i] * z[j]
        near = np.flatnonzero(cos >= cos_m)
        i, j, cos = i[near], j[near], cos[near]
        inner, outer = np.minimum(r[i], r[j]), np.maximum(r[i], r[j])
        step2 = np.maximum(inner * inner + outer * (outer - 2.0 * inner * cos), 0.0)
        near = np.flatnonzero(outer * cos - inner >= cos_m * np.sqrt(step2) - 1e-6 * outer)
        i, j = i[near], j[near]
        outward, tie = r[i] <= r[j], np.flatnonzero(r[i] == r[j])
        heads = by_key[np.concatenate([np.where(outward, i, j), j[tie]])]
        keys.append(heads * n + by_key[np.concatenate([np.where(outward, j, i), i[tie]])])
    keys = np.concatenate(keys)
    keys.sort()  # by head, then by candidate index
    bounds = np.searchsorted(keys, np.arange(n + 1) * n)
    keys %= n
    return keys, bounds[:-1], bounds[1:]


def _chains(
    pos: np.ndarray, offsets: np.ndarray, theta_c: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, list[int]]]:
    """All maximal alignment chains of each gas of a segmented gas.

    Gas j owns rows offsets[j]:offsets[j + 1] of ``pos``; there is at least
    one atom.  Chains follow the rules of ``build_chains`` within each gas,
    and no step calls BLAS.  Returns the atom directions, the chain heads in
    index order (so gas by gas), the chain lengths, and the members of each
    chain longer than one atom, keyed by head.  Only the growers, the heads
    that have a candidate besides themselves, need the visiting order: they
    are sorted by (gas, radius, index) and grow in ``_grow`` in batches,
    consecutive in that order with up to CANDIDATE_PAIRS candidates (a
    longer list alone).  No chain reads what others absorbed, so each
    batch's chains are then taken in visiting order; one whose head an
    earlier chain absorbed is dropped.
    """
    n = len(pos)
    gas = _gas_of_atoms(offsets)
    radii = np.sqrt(np.sum(pos * pos, axis=1))
    dirs = pos / radii[:, None]
    cos_c = math.cos(theta_c)
    if theta_c <= WIDE_CONE_ANGLE:
        members, start, end = _cone_candidates(radii, dirs, gas, cos_c - CANDIDATE_COS_SLACK)
    else:  # each atom and every atom after it in visiting order
        order = np.lexsort((radii, gas))
        members, start, end = order, np.argsort(order), offsets[gas + 1]
    growers = np.flatnonzero(end - start > 1)
    growers = growers[np.lexsort((radii[growers], gas[growers]))]  # a stable sort: ties by index
    rows = np.cumsum(np.append(0, end[growers] - start[growers]))
    absorbed = np.zeros(n, dtype=bool)
    length = np.ones(n, dtype=int)  # of the chain each atom heads
    grown: dict[int, list[int]] = {}
    done = 0
    while done < len(growers):
        stop = max(done + 1, int(np.searchsorted(rows, rows[done] + CANDIDATE_PAIRS, "right")) - 1)
        batch, done = growers[done:stop], stop
        batch = batch[~absorbed[batch]]
        for head, chain in zip(batch.tolist(), _grow(pos, radii, dirs, members, start, end, batch, cos_c)):
            if len(chain) > 1 and not absorbed[head]:
                grown[head], length[head] = chain, len(chain)
                absorbed[chain[1:]] = True
    heads = np.flatnonzero(~absorbed)
    return dirs, heads, length[heads], grown


def _grow(pos, radii, dirs, members, start, end, heads, cos_c) -> list[list[int]]:
    # the greedy chains of many heads, one array step per member over the rows
    # of their CSR lists (row r: atom idx[r] of chain seg[r]); a step keeps
    # the rows farther out than their chain's end, as no others can qualify
    size = end[heads] - start[heads]
    seg = np.repeat(np.arange(len(heads)), size)
    idx = members[np.repeat(start[heads] - np.cumsum(size) + size, size) + np.arange(len(seg))]
    (x, y, z), (ax, ay, az) = pos.T, dirs[heads].T
    (cx, cy, cz), cr = pos[heads].T, radii[heads]  # each chain's end; cr = inf once it stops
    chains = [[head] for head in heads.tolist()]
    with np.errstate(invalid="ignore", divide="ignore"):
        while len(seg := seg[keep := radii[idx] > cr[seg]]):
            idx = idx[keep]
            dx, dy, dz = x[idx] - cx[seg], y[idx] - cy[seg], z[idx] - cz[seg]
            dist = np.sqrt(dx * dx + dy * dy + dz * dz)  # the bits of (rel * rel).sum(axis=1)
            # the cone predicate: plain arithmetic, so no BLAS kernel sets its bits
            e = np.flatnonzero((dx * ax[seg] + dy * ay[seg] + dz * az[seg]) / dist >= cos_c)
            s = seg[e]
            first = np.flatnonzero(s != np.concatenate(([-1], s[:-1])))
            # complex numbers order by real part, then imaginary: the nearest
            # eligible row of each chain, ties to the smallest atom index
            s, j = s[first], np.minimum.reduceat(dist[e] + 1j * idx[e], first).imag.astype(int)
            cr[:] = np.inf
            cx[s], cy[s], cz[s], cr[s] = x[j], y[j], z[j], radii[j]
            for chain, atom in zip(s.tolist(), j.tolist()):
                chains[chain].append(atom)
    return chains


def build_chains(
    config: GasConfiguration, ctx: ScatteringContext, theta_c: float
) -> list[AlignmentChain]:
    """All maximal alignment chains of the configuration.

    Atoms are visited in ascending radius (ties by index).  From each head
    the chain grows greedily: the next member is the nearest atom strictly
    farther from the emitter whose direction from the current atom lies
    within ``theta_c`` of the head's emitter direction; distance ties go to
    the smallest index.  Atoms already absorbed into an earlier chain do not
    start their own, so the returned chains are the maximal ones.

    The cone test is (rel . axis) / |rel| of the step rel as a three-term
    sum, so no chain depends on the BLAS kernel.  Up to ``WIDE_CONE_ANGLE``
    the cone is convex, so every member lies in the cone at its head, and
    each head's candidates in a slightly wider cone are listed for all
    heads from one sort of the directions; a wider cone lists every atom
    farther out.  Many chains grow at once, one array step over all their
    lists per member.  The chains come in the visiting order of their heads.
    """
    n = config.n_atoms
    if n == 0:
        return []
    pos = config.atoms["position"]
    dirs, heads, _, grown = _chains(pos, np.array([0, n]), theta_c)
    heads = heads[np.argsort(np.sqrt(np.sum(pos[heads] ** 2, axis=1)), kind="stable")]  # visiting order
    return [
        AlignmentChain(indices=tuple(grown.get(head, (head,))), direction=dirs[head])
        for head in heads.tolist()
    ]


def _uniform_species(atoms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    # per gas: does each of its atoms share the species fields of the one before
    steps = np.zeros(len(atoms) + 1, dtype=bool)
    for f in _SPECIES_FIELDS:
        steps[1:-1] |= atoms[f][1:] != atoms[f][:-1]
    steps[offsets] = False  # the first atom of a gas starts it afresh
    return np.diff(np.cumsum(steps)[offsets]) == 0


def _tracks(atoms: np.ndarray, offsets: np.ndarray, ctx: ScatteringContext, theta_c: float):
    """The track of every non-empty gas of a segmented gas, as arrays.

    Gas j owns rows offsets[j]:offsets[j + 1] of the ATOM_DTYPE records
    ``atoms``; there is at least one atom, and every gas has ``theta_c``.
    Each gas keeps its longest chain; ties go to the chain with the smallest
    surviving spherical flux, then the smallest head index.  Returns, per
    non-empty gas in gas order, the chain head, chain length and the head's
    |C|^2, then the atom directions and the members of the longer chains
    from ``_chains``.
    """
    pos = atoms["position"]
    dirs, heads, lengths, grown = _chains(pos, offsets, theta_c)
    gas = _gas_of_atoms(offsets)[heads]
    # heads come gas by gas, and only those at their gas's longest length can win
    first = np.flatnonzero(np.diff(gas, prepend=-1))
    best = np.maximum.reduceat(lengths, first)
    tied = np.flatnonzero(lengths == np.repeat(best, np.diff(first, append=len(heads))))
    heads, gas, lengths = heads[tied], gas[tied], lengths[tied]
    first = np.flatnonzero(np.diff(gas, prepend=-1))
    # |C|^2 grows with head distance for a shared species, so head distance
    # orders the surviving flux of tied chains without computing it
    order_key = np.sqrt(dot(pos[heads], pos[heads]))  # bits of norm(atom["position"])
    n_tied = np.diff(first, append=len(heads))
    mixed = ~_uniform_species(atoms, offsets)[gas[first]] & (n_tied > 1)
    mixed = np.flatnonzero(np.repeat(mixed, n_tied))
    if len(mixed):
        c2 = normalization_c2_atoms(ctx, atoms[heads[mixed]])
        fluxes = zip(c2.tolist(), lengths[mixed].tolist())
        order_key[mixed] = [flux_free(ctx) * c2_i**n for c2_i, n in fluxes]
    # complex numbers order by real part, then imaginary: the smallest
    # (order key, head index) of each gas
    won = np.minimum.reduceat(order_key + 1j * heads, first).imag.astype(int)
    return won, best, normalization_c2_atoms(ctx, atoms[won]), dirs, grown


def select_track(
    config: GasConfiguration, ctx: ScatteringContext, envelope_drop: float = 0.5
) -> Optional[TrackResult]:
    """Deterministic track selected by the atom configuration.

    Builds all alignment chains and keeps the longest one; ties go to the
    chain with the smallest surviving spherical flux, then the smallest head
    index.  The surviving flux is flux_free * (|C|^2)^N with the chain-head
    atom's |C|^2 used for every step.  Returns None for an empty
    configuration.
    """
    if config.n_atoms == 0:
        return None
    theta_c = cone_half_angle(ctx, float(config.atoms["width"].max()), envelope_drop)
    (head,), (n,), (c2,), dirs, grown = _tracks(config.atoms, np.array([0, config.n_atoms]), ctx, theta_c)
    head, n, c2 = int(head), int(n), float(c2)
    chain = AlignmentChain(indices=tuple(grown.get(head, (head,))), direction=dirs[head].copy())
    return TrackResult(
        direction=chain.direction,
        chain=chain,
        surviving_spherical_flux=flux_free(ctx) * c2**n,
        c2_per_step=c2,
    )


def off_chain_c2_product(
    config: GasConfiguration, ctx: ScatteringContext, chain: AlignmentChain
) -> float:
    """Diagnostic: combined |C|^2 of the atoms not on the selected chain.

    The model reduces the spherical wave only along the selected chain; this
    reports how much further reduction the remaining atoms would contribute
    if they fed back as well.
    """
    off_chain = np.delete(config.atoms, chain.indices)
    return math.prod(normalization_c2_atoms(ctx, off_chain).tolist(), start=1.0)


# isotropy bins: bands uniform in z = cos(theta) crossed with uniform phi
# sectors, N_Z_BANDS * N_PHI_SECTORS bins of equal solid angle
N_Z_BANDS = 4
N_PHI_SECTORS = 8


def direction_bin(direction):
    """Equal-solid-angle bin in [0, N_Z_BANDS * N_PHI_SECTORS) of a direction, or of (m, 3) rows."""
    d = np.asarray(direction, dtype=float)
    x, y, z = d.reshape(-1, 3).T
    band = np.minimum(N_Z_BANDS - 1, ((np.clip(z, -1.0, 1.0) + 1.0) * 0.5 * N_Z_BANDS).astype(int))
    phi = np.arctan2(y, x)
    # np.arctan2 and math.atan2 may differ in the last bit, which moves the
    # sector only at its edges, whole numbers of u: there math.atan2 decides
    u = phi * (N_PHI_SECTORS / (2.0 * math.pi))
    edge = np.flatnonzero(np.abs(u - np.rint(u)) < 1e-9)
    phi[edge] = [math.atan2(b, a) for a, b in zip(x[edge].tolist(), y[edge].tolist())]
    sector = ((phi + math.pi) / (2.0 * math.pi) * N_PHI_SECTORS).astype(int) % N_PHI_SECTORS
    bins = band * N_PHI_SECTORS + sector
    return int(bins[0]) if d.ndim == 1 else bins


class IsotropyResult(Frozen):
    """Track counts per equal-solid-angle bin over many chamber runs, and their chi-square test."""

    __slots__ = ("counts", "chi_square", "p_value", "n_empty")

    def __init__(self, counts: np.ndarray, chi_square: float, p_value: float, n_empty: int):
        super().__init__(counts, chi_square, p_value, n_empty)


# isotropy_experiment samples and selects each range of consecutive configurations in one array pass.  A
# range holds _CHUNK_BUDGET // (1 + expected atoms) configurations, at least one, so its configurations plus
# its atoms come to about this budget: 151 README configurations, 4096 empty ones or one dense gas.  A README
# range peaks at about 1.05 MB of traced arrays, and with its tracks.csv text pickles to about 12 KB
_CHUNK_BUDGET = 2**12


def _range_tracks(i0, i1, mean_atoms, inner_radius, chamber_radius, species, ctx, rng, theta_c):
    # the tracks of configurations [i0, i1), sampled and selected in one pass: their directions, chain
    # lengths and flux ratios, or nothing when every gas is empty.  Configuration i has the draws and the
    # positions that sample_gas gives on the sub-stream rng.stream_id + 1 + i
    draw, normals, uniforms, offsets = rng.substream(rng.stream_id), [np.empty((0, 3))], [np.empty(0)], [0]
    for i in range(i0, i1):
        draw.rekey(rng.stream_id + 1 + i)
        normal, u = _draw_atoms(draw, mean_atoms)
        if len(u):  # an empty gas keeps nothing but its offset
            normals.append(normal)
            uniforms.append(u)
        offsets.append(offsets[-1] + len(u))
    if offsets[-1]:
        atoms = species.records(_shell_positions(np.concatenate(normals), np.concatenate(uniforms),
                                                 inner_radius, chamber_radius))
        del normals, uniforms  # the chain search holds no draws
        heads, lengths, c2, dirs, _ = _tracks(atoms, np.array(offsets), ctx, theta_c)
        yield dirs[heads], lengths, [c2_i**n for c2_i, n in zip(c2.tolist(), lengths.tolist())]


def isotropy_experiment(
    n_configs: int,
    density: float,
    inner_radius: float,
    chamber_radius: float,
    species: AtomSpecies,
    ctx: ScatteringContext,
    rng: RngStream,
    tracks,
    rows=lambda *chunk: chunk,
) -> IsotropyResult:
    """Track directions over many independent gas configurations.

    Configuration i is sampled from the sub-stream ``rng.stream_id + 1 + i``, and its track is the one
    ``select_track`` finds in ``sample_gas``'s gas on that stream.  Ranges of max(1, _CHUNK_BUDGET //
    (1 + expected atoms)) configurations are each sampled and selected in one array pass, on
    ``numerics.ordered_ranges``.  A range's process bins its tracks and formats them by ``rows(directions,
    chain_lengths, flux_ratios)``; the caller adds the counts and hands what ``rows`` returned (by default
    the three) to ``tracks`` in configuration order, so no result depends on the worker count, and keeps
    only the counts.  The chi-square is against equal-solid-angle bins, with n_bins - 1 degrees of freedom.
    """
    if n_configs < 100:
        raise ValueError(f"need at least 100 configurations, got {n_configs}")
    if n_configs > MAX_CONFIGS:
        raise ValueError(f"configuration count {n_configs} exceeds guard {MAX_CONFIGS}")
    n_bins = N_Z_BANDS * N_PHI_SECTORS
    counts = np.zeros(n_bins, dtype=int)
    theta_c = cone_half_angle(ctx, species.width)  # one species: one cone for the run
    mean_atoms = _expected_atoms(density, inner_radius, chamber_radius, species.width)  # before any fork
    size = max(1, int(_CHUNK_BUDGET // (1.0 + mean_atoms)))  # configurations of a range
    args = (mean_atoms, inner_radius, chamber_radius, species, ctx, rng, theta_c)

    def binned(i0):
        for chunk in _range_tracks(i0, min(i0 + size, n_configs), *args):
            yield np.bincount(direction_bin(chunk[0]), minlength=n_bins).tolist(), rows(*chunk)

    def added(item):
        counts[:] += item[0]
        tracks(item[1])

    starts = range(0, n_configs, size)  # a range object, so no list grows with the run
    ordered_ranges(starts, binned, added, "an isotropy worker ended without sending its tracks")
    if (n_tracks := int(counts.sum())) == 0:
        raise ValueError("no configuration produced a track; increase the density")
    expected = n_tracks / n_bins
    stat = float(np.sum((counts - expected) ** 2) / expected)
    return IsotropyResult(counts, stat, chi2_sf(n_bins - 1, stat), n_empty=n_configs - n_tracks)


def _json_number(data: dict, key: str, where: str = "", kind=(int, float)):
    # the one number rule of outside input, config values and gas.json alike: a
    # missing key, bools, strings, NaN and numbers beyond float range are malformed
    what = f"{where}{key!r}"
    if key not in data:
        raise ValueError(f"{what} is missing")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite {'integer' if kind is int else 'number'}, got {value!r}")
    return value


def _configuration(data: dict, table: Optional[np.ndarray] = None) -> GasConfiguration:
    # the gas of a gas.json object and the values of its atoms, one row each in _JSON_KEYS order, or None to
    # read them value by value.  The guard is 10 sigma above sample_gas's: a sampled gas passes it with P < 1e-22
    if len(data["atoms"]) > (guard := MAX_EXPECTED_ATOMS + 10 * math.isqrt(MAX_EXPECTED_ATOMS)):
        raise ValueError(f"atom count {len(data['atoms'])} exceeds replay guard {guard}")
    if table is None:
        table = np.empty((len(data["atoms"]), 7))
        for i, entry in enumerate(data["atoms"]):
            if not isinstance(entry, dict):
                raise ValueError(f"atom {i} must be an object, got {entry!r}")
            entry = {"delta_e": 0.0, **entry}
            table[i] = [_json_number(entry, key, f"atom {i} ") for key in _JSON_KEYS]
    atoms = _records(table[:, :3], *table[:, 3:].T)
    atoms.setflags(write=False)  # handed over: the gas keeps it without a copy
    return GasConfiguration(
        atoms=atoms,
        chamber_radius=_json_number(data, "chamber_radius"),
        inner_radius=_json_number(data, "inner_radius"),
        seed=_json_number(data, "seed", kind=int),
        stream_id=_json_number({"stream_id": 0, **data}, "stream_id", kind=int),
    )


def configuration_from_dict(data: dict) -> GasConfiguration:
    """The gas of a parsed gas.json document, by the slow path that names the first bad atom and key."""
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), list):
        raise ValueError("a gas configuration is an object with an 'atoms' list")
    return _configuration(data)


def save_configuration(config: GasConfiguration, path) -> None:
    """Write the configuration as JSON; floats round-trip exactly.

    The text is what ``json.dump(..., indent=1)`` writes, plus a newline,
    for the object with keys seed, stream_id, inner_radius, chamber_radius
    and atoms, a list of objects with keys x, y, z, s, g0, g1, delta_e.  It
    is formatted here, 256 atom entries (about 40 KB of text) at a time,
    because json's indenting encoder runs in pure Python and a joined text
    would hold the whole file in memory.
    """
    header = "".join(f' "{key}": {json.dumps(value)},\n' for key, value in (
        ("seed", config.seed), ("stream_id", config.stream_id),
        ("inner_radius", config.inner_radius), ("chamber_radius", config.chamber_radius),
    ))
    atoms = config.atoms
    columns = dict(zip(_JSON_KEYS, [*atoms["position"].T, *(atoms[f] for f in _SPECIES_FIELDS)]))
    fields = dict.fromkeys(_JSON_KEYS, "%r")  # atom fields are finite floats; json writes their repr
    for key in _JSON_KEYS[3:]:  # a species field of one bit pattern (-0.0 is not 0.0) is formatted once
        if len(bits := columns[key].view(np.int64)) and (bits == bits[0]).all():
            fields[key] = repr(columns.pop(key)[0].item())
    entry = "  {\n" + ",\n".join(f'   "{key}": {fields[key]}' for key in _JSON_KEYS) + "\n  }"
    table = np.column_stack(list(columns.values()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + header + ' "atoms": [')
        for start in range(0, len(table), 256):
            rows = table[start:start + 256].tolist()
            fh.write((",\n" if start else "\n") + ",\n".join([entry % tuple(row) for row in rows]))
        fh.write("\n ]\n}\n" if len(table) else "]\n}\n")


def load_configuration(path) -> GasConfiguration:
    """The gas of a gas.json file, as ``configuration_from_dict(json.load(fh))`` gives or raises it.

    The fast path: a parse hook writes each atom object's seven numbers into one array, so no Python
    object per atom outlives its parse.  A document the hook cannot vouch for takes the slow path.
    """
    from array import array  # here, so that only a replay loads the module
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    values, marker, pick = array("d"), object(), operator.itemgetter(*_JSON_KEYS)

    def atom(entry: dict):
        try:  # all seven values or none; a missing key, a non-number or an int past float range raises
            values.fromlist([*pick(entry)])
        except (KeyError, TypeError, OverflowError):
            return entry
        return marker

    if "true" not in text and "false" not in text:  # array("d") takes a bool for a number
        data = json.loads(text, object_hook=atom)
        atoms = data.get("atoms") if isinstance(data, dict) else None
        table = np.frombuffer(values).reshape(-1, 7)
        # every marker in 'atoms', every value inside the largest float (which a larger int rounds to)
        if isinstance(atoms, list) and len(table) == len(atoms) == atoms.count(marker) and (
                -sys.float_info.max < table.min(initial=0.0) and table.max(initial=0.0) < sys.float_info.max):
            del text  # the records are built without it
            return _configuration(data, table)
    return configuration_from_dict(json.loads(text))
