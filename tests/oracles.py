"""Reference implementations that the tests compare the package against.

None of these is shipped: each restates one piece of the physics or the
colouring in its plainest form, or integrates by brute force, so that the
array code in ``mottbox`` can be checked against it.
"""

import colorsys
import math

import mpmath
import numpy as np

from mottbox.bell import CorrelationEstimate, _plus_threshold
from mottbox.chamber import (
    N_PHI_SECTORS,
    N_Z_BANDS,
    AlignmentChain,
    IsotropyResult,
    TrackResult,
    cone_half_angle,
    sample_gas,
    select_track,
)
from mottbox.mott import angular_amplitude, atom, flux_free, normalization_c2, wave_field
from mottbox.numerics import chi2_sf, dot, gauss_legendre, norm, quad_1d, unit
from mottbox.render import colorize, sample_plane


def wave_field_scalar(ctx, record, point) -> complex:
    """The elastic-channel field at one non-singular point, one formula at a time.

    C [e^{ikR}/R + (e^{ik|R-a|}/|R-a|) I_0(theta)] with the scattering angle
    theta taken from a clamped arccos; without an atom record just e^{ikR}/R.
    """
    p = np.asarray(point, dtype=float)
    r = norm(p)
    free = complex(np.exp(1j * ctx.k * r) / r)
    if record is None:
        return free
    rel = p - record["position"]
    d = norm(rel)
    cos_theta = min(1.0, max(-1.0, float(np.dot(unit(record["position"]), rel / d))))
    theta = math.acos(cos_theta)
    scattered = complex(np.exp(1j * ctx.k * d) / d) * angular_amplitude(ctx, record, 0, theta)
    return math.sqrt(normalization_c2(ctx, record)) * (free + scattered)


def form_factor(record, channel: int, r) -> float:
    """Coupling matrix element g_j exp(-|r|^2 / (2 s^2)) of the Born volume integral.

    ``r`` is measured from the atom centre (atom-local coordinates).
    """
    if channel not in (0, 1):
        raise ValueError(f"channel must be 0 or 1, got {channel}")
    g = float(record[("g0", "g1")[channel]])
    r = np.asarray(r, dtype=float)
    s = float(record["width"])
    return g * math.exp(-float(np.dot(r, r)) / (2.0 * s * s))


def flux_free_numeric(ctx, radius=3.7, n_theta=24, n_phi=48, rel_step=1e-3) -> float:
    """Flux of the bare spherical wave from its probability current.

    Samples the wave on a sphere and at four radial offsets of step
    ``rel_step / k`` in one ``wave_field`` call, takes the radial derivative
    with the five-point stencil, forms J_r = Im(psi* dpsi/dR) and integrates
    J_r R^2 with a Gauss-Legendre rule in cos(theta) and a uniform rule in phi.
    The closed form is 4 pi v.
    """
    h = rel_step / ctx.k
    cos_nodes, cos_weights = gauss_legendre(n_theta)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_nodes * cos_nodes))
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    directions = np.stack(
        [
            sin_t[:, None] * np.cos(phis),
            sin_t[:, None] * np.sin(phis),
            np.broadcast_to(cos_nodes[:, None], (n_theta, n_phi)),
        ],
        axis=-1,
    )
    offsets = np.array([0.0, 2.0 * h, h, -h, -2.0 * h])[:, None, None, None]
    psi, plus2, plus1, minus1, minus2 = wave_field(
        ctx, None, radius * directions + offsets * directions
    )
    dpsi = (-plus2 + 8.0 * plus1 - 8.0 * minus1 + minus2) / (12.0 * h)
    j_r = (np.conj(psi) * dpsi).imag
    phi_weight = 2.0 * math.pi / n_phi
    return float(np.sum(cos_weights[:, None] * phi_weight * j_r * radius * radius))


def colormap(z: complex, modulus_scale: float) -> tuple[int, int, int]:
    """Map one complex value to an (r, g, b) byte triple with ``colorsys``.

    Hue encodes the phase (0 degrees at phase 0, increasing linearly around
    the circle); brightness is the modulus clipped at ``modulus_scale``;
    saturation is fixed at 1.  Zero maps to black.
    """
    if modulus_scale <= 0.0:
        raise ValueError(f"modulus_scale must be positive, got {modulus_scale}")
    hue = (np.angle(z) / (2.0 * np.pi)) % 1.0
    value = min(1.0, abs(z) / modulus_scale)
    rgb = colorsys.hsv_to_rgb(hue, 1.0, value)
    return tuple(math.floor(c * 255.0 + 0.5) for c in rgb)


def colorize_choose(grid, modulus_scale: float) -> bytes:
    """The image bytes of ``colorize``, computed over the whole grid at once.

    The standard HSV->RGB map at saturation 1 on float arrays the size of
    the grid: each channel picked by ``np.choose`` from value, q = value
    (1 - f), t = value f and p = 0, then stacked, clipped to [0, 1] and
    rounded to bytes; grid columns become image rows.  Non-finite values
    count as zero, so they are black.
    """
    if modulus_scale <= 0.0:
        raise ValueError(f"modulus_scale must be positive, got {modulus_scale}")
    grid = np.where(np.isfinite(grid), grid, 0.0)
    hue = np.angle(grid) / (2.0 * np.pi)
    value = np.minimum(1.0, np.abs(grid) / modulus_scale)
    h6 = (hue % 1.0) * 6.0
    sector = np.floor(h6).astype(int) % 6
    f = h6 - np.floor(h6)
    p = np.zeros_like(value)
    q = value * (1.0 - f)
    t = value * f
    r = np.choose(sector, [value, q, p, p, t, value])
    g = np.choose(sector, [t, value, value, q, p, p])
    b = np.choose(sector, [p, p, t, value, value, q])
    rgb = np.floor(np.clip(np.stack([r, g, b], axis=-1), 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return np.transpose(rgb, (1, 0, 2)).tobytes()


def lattice_points(plane) -> np.ndarray:
    """All (resolution, resolution, 3) points of the plane lattice in one array.

    Point [i, j] is origin + offset[i] u + offset[j] v, added in that order.
    """
    offs = plane.offsets()
    base = plane.origin + offs[:, None] * plane.u_axis
    return base[:, None, :] + offs[None, :, None] * plane.v_axis


def render_field(field, plane, modulus_scale: float):
    """Sample ``field`` on ``plane`` and colorize it, as the render CLI does."""
    return colorize(sample_plane(field, plane), modulus_scale)


def quad_3d(f, half_width: float, n_per_axis: int, vectorized: bool = False) -> complex:
    """Tensor-product Gauss-Legendre estimate of a complex volume integral.

    Integrates ``f`` over the cube [-half_width, half_width]^3; the integrand
    must decay inside the cube.  By default ``f`` maps one 3-vector to one
    complex value.  With ``vectorized=True`` it receives an (m, 3) array of
    points and must return m values, which is much faster for large grids.
    """
    if half_width <= 0.0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    x, w = gauss_legendre(n_per_axis)
    x = half_width * x
    w = half_width * w
    gx, gy, gz = np.meshgrid(x, x, x, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
    wts = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    if vectorized:
        vals = np.asarray(f(pts), dtype=complex)
        if vals.shape != (len(pts),):
            raise ValueError(f"vectorized integrand returned shape {vals.shape}, expected ({len(pts)},)")
    else:
        vals = np.fromiter((complex(f(p)) for p in pts), dtype=complex, count=len(pts))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(f"integrand returned non-finite value {vals[i]!r} at R={pts[i]}")
    return complex(np.dot(wts, vals))


def intensity_integrals_scalar(k, a, s, g0, g1, n) -> tuple[float, float]:
    """int_0^pi sin(theta) |I_j(theta)|^2 dtheta for both channels, one node at a time.

    The n-node Gauss-Legendre sum of ``numerics.quad_1d`` over a scalar
    integrand; ``mott`` forms the same sum from a table of node factors.
    """

    def intensity(g: float):
        def f(theta: float) -> float:
            q = 2.0 * k * math.sin(0.5 * theta)
            amp = g * (2.0 * math.pi) ** 1.5 * s**3 * math.exp(-0.5 * q * q * s * s) / (
                2.0 * math.pi * a
            )
            return math.sin(theta) * amp * amp

        return f

    a0 = quad_1d(intensity(g0), 0.0, math.pi, n) if g0 > 0.0 else 0.0
    a1 = quad_1d(intensity(g1), 0.0, math.pi, n) if g1 > 0.0 else 0.0
    return a0, a1


def species_at(species, position) -> np.void:
    """One atom of ``species`` at ``position``, as a ``mott.atom`` record."""
    return atom(position, species.width, species.g0, species.g1, species.delta_e)


def off_chain_c2_product_loop(config, ctx, chain) -> float:
    """``chamber.off_chain_c2_product`` as a loop: one ``normalization_c2`` per off-chain atom."""
    members = set(chain.indices)
    product = 1.0
    for i in range(config.n_atoms):
        if i not in members:
            product *= normalization_c2(ctx, config.atoms[i])
    return product


def build_chains_scan(config, ctx, theta_c) -> list:
    """``chamber.build_chains`` by scanning every atom at every chain step.

    Atoms are visited in ascending radius (ties by index); each chain grows
    greedily to the nearest atom strictly farther out whose step lies within
    ``theta_c`` of the head direction, distance ties to the smallest index,
    and absorbed atoms start no chain.  O(n^2) per configuration.
    """
    n = config.n_atoms
    if n == 0:
        return []
    pos = np.ascontiguousarray(config.atoms["position"])
    radii = np.sqrt(np.sum(pos * pos, axis=1))
    dirs = pos / radii[:, None]
    cos_c = math.cos(theta_c)
    order = np.argsort(radii, kind="stable").tolist()  # ascending radius, ties by index
    absorbed: set[int] = set()
    chains: list[AlignmentChain] = []
    for head in order:
        if head in absorbed:
            continue
        axis = dirs[head]
        members = [head]
        current = head
        while True:
            rel = pos - pos[current]
            dist = np.sqrt(np.sum(rel * rel, axis=1))
            with np.errstate(invalid="ignore", divide="ignore"):
                cos_angle = (rel @ axis) / dist
            eligible = (radii > radii[current]) & (dist > 0.0) & (cos_angle >= cos_c)
            if not np.any(eligible):
                break
            dist = np.where(eligible, dist, np.inf)
            nxt = int(np.argmin(dist))  # first minimum = smallest index on ties
            members.append(nxt)
            current = nxt
        absorbed.update(members[1:])
        chains.append(AlignmentChain(indices=tuple(members), direction=dirs[head]))
    return chains


def cone_candidates_scan(pos, gas, cos_m) -> list:
    """``chamber._cone_candidates`` as one all-atoms test per head.

    Atom j is listed for head h when it is in the same gas, no nearer the
    emitter, its direction has the three-term dot product >= cos_m with
    h's, and the step h -> j passes the head-cone test of
    ``_cone_candidates``.  Returns each head's ascending index list.
    """
    radii = np.sqrt(np.sum(pos * pos, axis=1))
    dirs = pos / radii[:, None]
    lists = []
    for h in range(len(pos)):
        d = dirs[h]
        step = pos - pos[h]
        listed = (
            (gas == gas[h])
            & (radii >= radii[h])
            & (d[0] * dirs[:, 0] + d[1] * dirs[:, 1] + d[2] * dirs[:, 2] >= cos_m)
            & (dot(step, dirs[np.full(len(pos), h)]) >= cos_m * np.sqrt(dot(step, step)))
        )
        lists.append(np.flatnonzero(listed).tolist())
    return lists


def select_track_scan(config, ctx, envelope_drop=0.5):
    """``chamber.select_track`` over ``build_chains_scan``, one tied chain at a time.

    The longest chain wins.  Tied chains of a gas whose atoms share one
    species go to the smallest head distance, since |C|^2 grows with it;
    otherwise to the smallest surviving flux flux_free * |C|^2(head)^N, with
    one ``normalization_c2`` per tied head; then to the smallest head index.
    """
    if config.n_atoms == 0:
        return None
    theta_c = cone_half_angle(ctx, float(config.atoms["width"].max()), envelope_drop)
    chains = build_chains_scan(config, ctx, theta_c)
    best_n = max(c.n for c in chains)
    tied = [c for c in chains if c.n == best_n]
    atoms = config.atoms
    if all(bool(np.all(atoms[f] == atoms[f][0])) for f in ("width", "g0", "g1", "delta_e")):
        distance = np.sqrt(dot(atoms["position"], atoms["position"]))
        tied.sort(key=lambda c: (distance[c.head], c.head))
    else:
        def flux(c):
            return flux_free(ctx) * normalization_c2(ctx, config.atoms[c.head]) ** c.n

        tied.sort(key=lambda c: (flux(c), c.head))
    winner = tied[0]
    c2 = normalization_c2(ctx, config.atoms[winner.head])
    return TrackResult(
        direction=winner.direction,
        chain=winner,
        surviving_spherical_flux=flux_free(ctx) * c2**winner.n,
        c2_per_step=c2,
    )


def track_winners_lexsort(atoms, offsets, ctx, heads, lengths):
    """The winning chain of each non-empty gas of a segmented gas, by one sort of every head.

    Gas j owns rows offsets[j]:offsets[j + 1] of the ATOM_DTYPE records
    ``atoms``; ``heads`` and ``lengths`` are the chain heads of all gases
    with their chain lengths.  Every head is sorted by (gas, -length, key,
    head index) and each gas keeps its first.  The key is the surviving flux
    flux_free * |C|^2(head)^N, one ``normalization_c2`` per head, for the
    tied heads of a gas of several species with more than one tied head, and
    the head distance otherwise.  Returns the winners' heads and lengths.
    """
    heads, lengths = np.asarray(heads), np.asarray(lengths)
    n_gases = len(offsets) - 1
    gas = np.searchsorted(offsets, heads, side="right") - 1
    best = [max(lengths[gas == j], default=0) for j in range(n_gases)]
    tied = lengths == np.array(best)[gas]
    one_species = [
        all(bool(np.all(atoms[f][a:b] == atoms[f][a])) for f in ("width", "g0", "g1", "delta_e"))
        for a, b in zip(offsets[:-1], offsets[1:])
    ]
    key = np.array([norm(atoms["position"][h]) for h in heads.tolist()])
    for i, (h, j, n) in enumerate(zip(heads.tolist(), gas.tolist(), lengths.tolist())):
        if tied[i] and not one_species[j] and np.count_nonzero(tied & (gas == j)) > 1:
            key[i] = flux_free(ctx) * normalization_c2(ctx, atoms[h]) ** n
    order = np.lexsort((heads, key, -lengths, gas))
    won = order[np.flatnonzero(np.diff(gas[order], prepend=-1))]
    return heads[won], lengths[won]


def direction_bin_scalar(x: float, y: float, z: float) -> int:
    """``chamber.direction_bin`` of one direction, one float at a time."""
    z = min(1.0, max(-1.0, z))
    band = min(N_Z_BANDS - 1, int((z + 1.0) * 0.5 * N_Z_BANDS))
    phi = math.atan2(y, x)
    sector = int((phi + math.pi) / (2.0 * math.pi) * N_PHI_SECTORS) % N_PHI_SECTORS
    return band * N_PHI_SECTORS + sector


def chi2_sf_mpmath(df, x):
    """The chi-square tail P(X > x) at 200 bits, as an mpmath number.

    mpmath's regularized incomplete gamma of a = df / 2 at x / 2: the upper
    integral above a, one minus the lower integral below it, where each
    converges fast.
    """
    with mpmath.workprec(200):
        a, z = mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
        if z < a:
            return 1 - mpmath.gammainc(a, 0, z, regularized=True)
        return mpmath.gammainc(a, z, mpmath.inf, regularized=True)


def ulps_from(got, want) -> float:
    """|got - want| in units in the last place of ``want`` rounded to a float."""
    return float(abs(mpmath.mpf(got) - want)) / math.ulp(float(want))


def isotropy_per_config(
    n_configs, density, inner_radius, chamber_radius, species, ctx, rng, config_factory=None,
    select=select_track,
):
    """``chamber.isotropy_experiment`` one configuration at a time.

    Configuration i is ``sample_gas`` on the sub-stream rng.stream_id + 1 + i
    (or ``config_factory(i)``), and its track is ``select(gas, ctx)`` of that
    gas alone; the counts, chi-square and p-value follow from the tracks.
    """
    n_bins = N_Z_BANDS * N_PHI_SECTORS
    counts = np.zeros(n_bins, dtype=int)
    directions, chain_lengths, flux_ratios = [], [], []
    for i in range(n_configs):
        if config_factory is not None:
            config = config_factory(i)
        else:
            stream = rng.substream(rng.stream_id + 1 + i)
            config = sample_gas(density, inner_radius, chamber_radius, species, stream)
        track = select(config, ctx)
        if track is None:
            continue
        counts[direction_bin_scalar(*track.direction.tolist())] += 1
        directions.append(track.direction)
        chain_lengths.append(track.chain.n)
        flux_ratios.append(track.flux_ratio)
    expected = len(directions) / n_bins
    stat = float(np.sum((counts - expected) ** 2) / expected)
    return IsotropyResult(
        counts=counts,
        chi_square=stat,
        p_value=chi2_sf(n_bins - 1, stat),
        directions=np.array(directions).reshape(-1, 3),
        chain_lengths=np.array(chain_lengths, dtype=int),
        flux_ratios=np.array(flux_ratios),
        n_empty=n_configs - len(directions),
    )


def configuration_to_dict(config) -> dict:
    """The gas.json document of ``config``, as ``json.dump`` takes it.

    ``chamber.save_configuration`` writes ``json.dumps(document, indent=1)``
    plus a newline, formatted by hand.
    """
    atoms = config.atoms
    fields = [atoms["position"].tolist()] + [atoms[f].tolist() for f in ("width", "g0", "g1", "delta_e")]
    return {
        "seed": config.seed,
        "stream_id": config.stream_id,
        "inner_radius": config.inner_radius,
        "chamber_radius": config.chamber_radius,
        "atoms": [
            {"x": x, "y": y, "z": z, "s": s, "g0": g0, "g1": g1, "delta_e": delta_e}
            for (x, y, z), s, g0, g1, delta_e in zip(*fields)
        ],
    }


def response_batch(state, setting, lams) -> np.ndarray:
    """Vectorized :func:`response` over an array of internal variables.

    Element i equals ``response(state, setting, HiddenVariable(lams[i]))``;
    the threshold expression is shared with the scalar path.
    """
    lams = np.asarray(lams, dtype=float)
    t = _plus_threshold(state.axis, setting.orientation)
    return np.where(lams < t, float(state.sign), float(-state.sign))


def trial_products(a, b, lam1, lam2) -> np.ndarray:
    """Vectorized outcome products r1*r2 for arrays of internal variables.

    Bit-identical to looping :func:`epr_trial` over (lam1[i], lam2[i]); the
    threshold expressions are shared with the scalar path.
    """
    lam1 = np.asarray(lam1, dtype=float)
    lam2 = np.asarray(lam2, dtype=float)
    r1 = np.where(lam1 < 0.5, 1.0, -1.0)
    t = _plus_threshold(a.orientation, b.orientation)
    r2 = -r1 * np.where(lam2 < t, 1.0, -1.0)
    return r1 * r2


def correlation_mc_array(a, b, n, rng) -> CorrelationEstimate:
    """``bell.correlation_mc`` over one ``(n, 2)`` array of uniforms and one of products.

    The streamed estimator must give the same mean and std_error bits.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    u = rng.uniform(size=(n, 2))
    products = trial_products(a, b, u[:, 0], u[:, 1])
    mean = float(products.mean())
    std_error = float(products.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CorrelationEstimate(mean=mean, std_error=std_error, n_trials=n)
