"""Single-obstacle Born scattering of an outgoing spherical wave.

An alpha-like projectile is emitted as a spherical wave e^{ikR}/R and
scatters once, elastically or inelastically, off a gas atom with a Gaussian
coupling of width s.  The scattered wave is itself spherical, centred on the
atom and strongly peaked in the forward direction.  Requiring the total
probability flux through a large sphere to match the obstacle-free value
forces a global normalization |C|^2 < 1, i.e. the unscattered spherical
component is reduced by the presence of the obstacle.

Natural units throughout: hbar = m = 1, so k = sqrt(2 E) and the velocity
equals the wavenumber.  A scale map to MeV/fm (or any other system) only
rescales lengths and energies; every ratio reported here is unchanged.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .numerics import FrozenValue, dot, norm, unit

__all__ = [
    "ScatteringContext",
    "ATOM_DTYPE",
    "atom",
    "check_atoms",
    "transferred_momentum",
    "angular_amplitude",
    "flux_free",
    "flux_total",
    "normalization_c2",
    "normalization_c2_atoms",
    "wave_field",
    "quadrature_convergence_check",
]

# below this distance from the emitter or the obstacle the 1/R fields blow up,
# so wave_field returns NaN there
SINGULAR_RADIUS = 1e-9

# far-field formulas need the obstacle many widths away from the emitter
MIN_DISTANCE_WIDTHS = 10.0

_SPECIES_FIELDS = ("width", "g0", "g1", "delta_e")
# one record per gas atom, the fields of one gas.json atom entry
ATOM_DTYPE = np.dtype([("position", float, 3), *((f, float) for f in _SPECIES_FIELDS)])


def _records(positions, width, g0, g1, delta_e) -> np.ndarray:
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    atoms = np.empty(len(positions), ATOM_DTYPE)
    atoms["position"] = positions
    atoms["width"], atoms["g0"], atoms["g1"], atoms["delta_e"] = width, g0, g1, delta_e
    return atoms


def check_atoms(width, g0, g1, delta_e, radius=None) -> None:
    """Raise ValueError for the first atom that breaks a rule of the far-field model.

    The one rule set of ``atom``, AtomSpecies and GasConfiguration, applied
    to one record's fields or to the field arrays of a gas.  ``radius`` is
    the distance from the emitter; a species has none.  A NaN coupling
    must not pass: it reads as zero in |C|^2, which then is 1.
    """
    fields = {"|position|": radius, "width": width, "g0": g0, "g1": g1, "delta_e": delta_e}

    def require(ok, rule):
        if ok is True or np.asarray(ok).all():  # plain floats of one atom give a plain bool
            return
        i = int(np.argmin(ok))
        got = ", ".join(f"{name} = {float(np.ravel(v)[i]):g}" for name, v in fields.items() if v is not None)
        raise ValueError(f"{f'atom {i}: ' if np.ndim(ok) else ''}{rule}, got {got}")

    # every comparison with NaN is false, so "< inf" rejects NaN as well
    if radius is not None:
        require(radius < math.inf, "position must have a finite norm")
    require((width > 0.0) & (width < math.inf), "width must be finite and positive")
    require((g0 >= 0.0) & (g0 < math.inf) & (g1 >= 0.0) & (g1 < math.inf),
            "couplings must be finite and non-negative")
    require((delta_e >= 0.0) & (delta_e < math.inf), "excitation energy must be finite and non-negative")
    if radius is not None:
        with np.errstate(over="ignore"):
            fields["a/s"] = radius / width
        require(fields["a/s"] >= MIN_DISTANCE_WIDTHS,
                f"far-field amplitudes need |position| >= {MIN_DISTANCE_WIDTHS:g} * width")


class ScatteringContext(FrozenValue):
    """Projectile kinematics: kinetic energy and obstacle excitation energy.

    Wavenumbers and velocities follow from the natural units: the elastic
    channel has k = sqrt(2 e_alpha) and the inelastic channel loses delta_e
    to the obstacle, so k' = sqrt(2 (e_alpha - delta_e)) <= k.
    """

    __slots__ = ("e_alpha", "delta_e")

    def __init__(self, e_alpha: float, delta_e: float = 0.0):
        if not (e_alpha > 0.0 and math.isfinite(e_alpha)):
            raise ValueError(f"projectile energy must be finite and positive, got {e_alpha}")
        if not (0.0 <= delta_e < e_alpha):
            raise ValueError(f"excitation energy must satisfy 0 <= delta_e < e_alpha, got {delta_e}")
        super().__init__(e_alpha, delta_e)

    @classmethod
    def from_wavenumber(cls, k: float, delta_e: float = 0.0) -> "ScatteringContext":
        if not k > 0.0:
            raise ValueError(f"wavenumber k must be positive, got {k}")
        if not 0.0 < 0.5 * k * k < math.inf:
            raise ValueError(f"wavenumber k = {k}: k^2/2 {'overflows' if k > 1.0 else 'underflows to 0'}")
        return cls(e_alpha=0.5 * k * k, delta_e=delta_e)

    @property
    def k(self) -> float:
        return math.sqrt(2.0 * self.e_alpha)

    @property
    def k_prime(self) -> float:
        return math.sqrt(2.0 * (self.e_alpha - self.delta_e))

    @property
    def v_alpha(self) -> float:
        return self.k

    @property
    def v_alpha_prime(self) -> float:
        return self.k_prime


def atom(position, width: float, g0: float, g1: float, delta_e: float = 0.0) -> np.void:
    """One gas atom as an ATOM_DTYPE record: position, coupling width and channel strengths.

    ``g0`` couples the elastic channel, ``g1`` the inelastic one; ``delta_e``
    is the excitation energy the inelastic channel deposits.  The far-field
    amplitude formulas require the atom to sit many widths away from the
    emitter, enforced with the other atom rules by :func:`check_atoms`.
    """
    p = np.asarray(position, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"position must be a 3-vector, got {position}")
    check_atoms(width, g0, g1, delta_e, radius=norm(p))
    records = _records(p, width, g0, g1, delta_e)
    records.setflags(write=False)  # read-only, as the records of a gas are
    return records[0]


def transferred_momentum(k: float, theta):
    """Momentum transfer q = 2 k sin(theta/2) at one angle in [0, pi] (a float) or an array of them.

    Each element is the scalar math.sin formula, so its bits do not depend on the array.
    """
    t = np.asarray(theta, dtype=float)
    bad = ~((t >= 0.0) & (t <= math.pi))  # NaN included
    if bad.any():
        raise ValueError(f"scattering angle must lie in [0, pi], got {float(t[bad][0])}")
    q = np.reshape([2.0 * k * math.sin(0.5 * x) for x in t.ravel().tolist()], t.shape)
    return q if t.ndim else float(q)


def _envelope(q, s: float):
    # exp(-q^2 s^2 / 2) by math.exp element by element: the bits of angular_amplitude and the |C|^2 nodes
    return np.reshape([math.exp(-0.5 * x * x * s * s) for x in np.ravel(q).tolist()], np.shape(q))


def _amplitudes(ctx: ScatteringContext, atom: np.void, theta):
    # q and I_0, I_1 of angular_amplitude at the angles theta, from one q and one envelope
    position, s, g0, g1, _ = atom.tolist()
    a, q = norm(position), transferred_momentum(ctx.k, theta)
    phase, envelope = np.exp(1j * ctx.k * a) / a, _envelope(q, s)
    return q, *(phase * (g * (2.0 * math.pi) ** 1.5 * s**3 * envelope) / (2.0 * math.pi) for g in (g0, g1))


def angular_amplitude(ctx: ScatteringContext, atom: np.void, channel: int, theta):
    """Amplitude I_j(theta) of the wave scattered once by the ATOM_DTYPE record ``atom``.

    The scattered wave is (e^{ik|R-a|} / |R-a|) I_j(theta), with theta
    measured from the emitter-to-obstacle direction.  For the Gaussian
    coupling the Fourier transform is closed-form:

        I_j(theta) = (1/2pi) (e^{ika} / a) g_j (2pi)^{3/2} s^3 exp(-q^2 s^2 / 2),

    with q = 2 k sin(theta/2).  The inelastic channel uses the same q since
    the excitation energy is negligible against the projectile energy; its
    distinct velocity only enters the flux bookkeeping.  One angle gives a
    complex, an array of angles a complex array of the same bits.
    """
    if channel not in (0, 1):
        raise ValueError(f"channel must be 0 (elastic) or 1 (inelastic), got {channel}")
    amplitude = _amplitudes(ctx, atom, theta)[1 + channel]
    return amplitude if amplitude.ndim else complex(amplitude)


def flux_free(ctx: ScatteringContext) -> float:
    """Probability flux 4 pi v of the bare spherical wave through any sphere."""
    return 4.0 * math.pi * ctx.v_alpha


# The 128-node Gauss-Legendre rule on [-1, 1] of the flux integrals, stored
# with the bits numpy's leggauss(128) gives (numpy 2.4.6), so that no run
# solves an eigenproblem for it.  leggauss makes the two halves exact mirror
# images: these are the positive nodes in increasing order and their weights.
# quadrature_convergence_check says for which k s the rule is exact to 1e-8.
_NODES_POS = np.array([
    0.012223698960615766, 0.0366637909687335, 0.06108196960413957, 0.0854636405045155,
    0.10979423112764375, 0.13405919946118777, 0.15824404271422493, 0.18233430598533718,
    0.2063155909020792, 0.23017356422666, 0.2538939664226943, 0.2774626201779044,
    0.3008654388776772, 0.32408843502441337, 0.3471177285976355, 0.369939555349859,
    0.39254027503326744, 0.414906379552275, 0.43702450103710416, 0.4588814198335522,
    0.48046407240417205, 0.5017595591361445, 0.5227551520511755, 0.5434383024128103,
    0.5637966482266181, 0.5838180216287631, 0.6034904561585486, 0.6228021939105849,
    0.6417416925623075, 0.660297632272646, 0.6784589224477192, 0.6962147083695144,
    0.7135543776835874, 0.7304675667419088, 0.746944166797062, 0.7629743300440948,
    0.7785484755064119, 0.7936572947621933, 0.8082917575079136, 0.8224431169556439,
    0.8361029150609068, 0.8492629875779689, 0.8619154689395485, 0.8740527969580318,
    0.8856677173453972, 0.8967532880491582, 0.9073028834017568, 0.9173101980809605,
    0.9267692508789478, 0.9356743882779164, 0.9440202878302202, 0.9518019613412644,
    0.9590147578536999, 0.9656543664319652, 0.9717168187471366, 0.9771984914639074,
    0.9820961084357185, 0.9864067427245862, 0.9901278184917344, 0.9932571129002129,
    0.9957927585349812, 0.997733248625514, 0.999077459977376, 0.9998248879471319,
])
_WEIGHTS_POS = np.array([
    0.024446180196262345, 0.024431569097849878, 0.02440235563384944, 0.024358557264690488,
    0.0243002001679717, 0.024227319222815093, 0.024139957989019144, 0.02403816868102389,
    0.02392201213670332, 0.02379155778100324, 0.02364688358444749, 0.023488076016535752,
    0.023315229994062582, 0.0231284488243869, 0.022927844143686663, 0.02271353585023634,
    0.02248565203274481, 0.02224432889379961, 0.021989710668460342, 0.021721949538051975,
    0.02144120553920827, 0.021147646468221246, 0.020841447780751005, 0.020522792486960022,
    0.020191871042129824, 0.0198488812328308, 0.019494028058706498, 0.01912752360995088,
    0.018749586940544658, 0.018360443937331248, 0.01796032718500865, 0.01754947582711747,
    0.01712813542311128, 0.016696557801588987, 0.016255000909785, 0.015803728659399094,
    0.015343010768865193, 0.014873122602147326, 0.01439434500416672, 0.01390696413295181,
    0.013411271288616303, 0.012907562739267471, 0.012396139543950505, 0.011877307372739933,
    0.011351376324080608, 0.010818660739502797, 0.010279479015832234, 0.009734153415007031,
    0.009183009871660687, 0.008626377798616598, 0.00806458989048577, 0.007497981925634543,
    0.0069268925668985095, 0.006351663161707444, 0.005772637542865853, 0.005190161832676652,
    0.00460458425670373, 0.00401625498373918, 0.0034255260409105683, 0.002832751471458722,
    0.0022382884309627396, 0.0016425030186673034, 0.001045812679339503, 0.00044938096029840415,
])
_NODES = np.concatenate([-_NODES_POS[::-1], _NODES_POS])
_WEIGHTS = np.concatenate([_WEIGHTS_POS[::-1], _WEIGHTS_POS])
_NODES.setflags(write=False)
_WEIGHTS.setflags(write=False)
_QUAD_NODES = len(_NODES)


@functools.lru_cache(maxsize=64)
def _node_factors(k: float, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # the Gauss-Legendre rule on [0, pi], sin(theta) and angular_amplitude's envelope at each node
    half = 0.5 * math.pi
    thetas = half + half * _NODES
    sin_t = np.array([math.sin(t) for t in thetas.tolist()])
    envelope = _envelope(transferred_momentum(k, thetas), s)
    for table in (thetas, sin_t, envelope):
        table.setflags(write=False)
    return thetas, _WEIGHTS, sin_t, envelope


def _intensity_rows(k: float, a, s, g0, g1) -> tuple[np.ndarray, np.ndarray]:
    # int_0^pi sin(theta) |I_g(theta)|^2 dtheta of both channels for arrays
    # of atoms, 0 where the coupling is 0.  The envelope at each node is
    # angular_amplitude's (one _envelope call per width), and the cumulative
    # sum along the nodes adds them one by one, in the order of a scalar
    # loop, so a row's bits do not depend on the other rows.  The
    # first non-finite integrand in the order (atom, channel g0 then g1,
    # node) raises.
    a, s = np.asarray(a, dtype=float), np.asarray(s, dtype=float)
    g = np.stack([np.asarray(g0, dtype=float), np.asarray(g1, dtype=float)], axis=1)
    if not len(s):
        return np.empty(0), np.empty(0)
    widths, which = np.unique(s, return_inverse=True)
    tables = [_node_factors(k, width) for width in widths.tolist()]
    thetas, w, sin_t = tables[0][:3]  # the same for every width
    envelope = np.stack([table[3] for table in tables])[which]
    s3 = np.array([width**3 for width in s.tolist()])  # float ** int, as the scalar formula rounds it
    with np.errstate(over="ignore", invalid="ignore"):
        # in place, so that at most two (atoms, 2, nodes) arrays are alive
        amp = (g * (2.0 * math.pi) ** 1.5 * s3[:, None])[:, :, None] * envelope[:, None, :]
        amp /= (2.0 * math.pi * a)[:, None, None]
        val = sin_t * amp
        val *= amp
    del amp
    bad = ~np.isfinite(val) & (g > 0.0)[:, :, None]
    if bad.any():
        i = int(np.argmax(bad))
        node = i % len(thetas)
        raise ValueError(
            f"integrand returned non-finite value {float(val.flat[i])!r} at x={float(thetas[node])!r}"
        )
    val *= w
    sums = np.where(g > 0.0, 0.5 * math.pi * np.cumsum(val, axis=2)[:, :, -1], 0.0)
    return sums[:, 0], sums[:, 1]


@functools.lru_cache(maxsize=4096)
def _intensity_integrals(k: float, a: float, s: float, g0: float, g1: float) -> tuple[float, float]:
    # shared by flux_total and normalization_c2 so the flux identity holds bitwise
    a0, a1 = _intensity_rows(k, [a], [s], [g0], [g1])
    return float(a0[0]), float(a1[0])


def flux_total(ctx: ScatteringContext, atom: np.void) -> float:
    """Total flux through a large sphere around the emitter, the atom included.

    F = 4 pi v + 2 pi v int sin(theta) |I_0|^2 + 2 pi v' int sin(theta) |I_1|^2.
    The scattered terms are non-negative, so F >= flux_free with equality only
    when both couplings vanish.  Interference between the unscattered and
    scattered waves integrates to zero on a large sphere and is dropped.
    """
    position, s, g0, g1, _ = atom.tolist()
    a0, a1 = _intensity_integrals(ctx.k, norm(position), s, g0, g1)
    return (
        4.0 * math.pi * ctx.v_alpha
        + 2.0 * math.pi * ctx.v_alpha * a0
        + 2.0 * math.pi * ctx.v_alpha_prime * a1
    )


def _c2(ctx: ScatteringContext, a0, a1):
    ratio = ctx.v_alpha_prime / ctx.v_alpha
    return 1.0 / (1.0 + 0.5 * a0 + 0.5 * ratio * a1)


def normalization_c2(ctx: ScatteringContext, atom: np.void) -> float:
    """Squared normalization |C|^2 in (0, 1] restoring flux conservation.

    |C|^2 = [1 + (1/2) int sin |I_0|^2 + (1/2)(v'/v) int sin |I_1|^2]^{-1},
    so |C|^2 * flux_total == flux_free identically and the unscattered
    spherical amplitude is reduced whenever either coupling is non-zero.
    """
    position, s, g0, g1, _ = atom.tolist()
    return _c2(ctx, *_intensity_integrals(ctx.k, norm(position), s, g0, g1))


def normalization_c2_atoms(ctx: ScatteringContext, atoms: np.ndarray) -> np.ndarray:
    """|C|^2 of every record of the 1-d ATOM_DTYPE array ``atoms`` at once.

    Element i has the bits of ``normalization_c2(ctx, atoms[i])``, and a
    non-finite integrand raises the ValueError that the first such atom
    raises there.  The records are taken as valid under ``check_atoms``.
    The quadrature takes 64 rows at a time: its node arrays stay under 0.4 MB.
    """
    distance = np.sqrt(dot(atoms["position"], atoms["position"]))  # bits of norm(atom["position"])
    c2 = np.empty(len(atoms))
    for i in range(0, len(atoms), 64):
        block = atoms[i:i + 64]
        a0, a1 = _intensity_rows(ctx.k, distance[i:i + 64], block["width"], block["g0"], block["g1"])
        c2[i:i + 64] = _c2(ctx, a0, a1)
    return c2


def wave_field(ctx: ScatteringContext, atom: np.void | None, points) -> np.ndarray:
    """Elastic-channel field values at ``points``, an array of shape (..., 3).

    Returns a complex array of shape (...).  Without an atom (None) this is
    the bare spherical wave e^{ikR}/R.  With an ATOM_DTYPE record it is
    C [e^{ikR}/R + (e^{ik|R-a|}/|R-a|) I_0(theta)], the flux-normalized sum of
    the unscattered wave and the once-scattered elastic wave, with C taken
    real positive (only |C|^2 is fixed by flux conservation).  Points within
    SINGULAR_RADIUS of the emitter or of the atom centre give NaN.
    """
    p = np.asarray(points, dtype=float)
    k = ctx.k
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = np.sqrt(dot(p, p))
        singular = r < SINGULAR_RADIUS
        field = np.exp(1j * k * r) / r
        if atom is not None:
            rel = p - atom["position"]
            d = np.sqrt(dot(rel, rel))
            singular |= d < SINGULAR_RADIUS
            theta = np.arccos(np.clip(dot(rel / d[..., None], unit(atom["position"])), -1.0, 1.0))
            # I_0(theta) of angular_amplitude, but by numpy's sin and exp: _envelope's math
            # calls would move 74 grid.csv pixels of the README render by an ulp and take its
            # sampling from 22 to 57 ms (field.ppm keeps its bytes either way)
            q = 2.0 * k * np.sin(0.5 * theta)
            a, s = norm(atom["position"]), float(atom["width"])
            ft = float(atom["g0"]) * (2.0 * math.pi) ** 1.5 * s**3 * np.exp(-0.5 * q * q * s * s)
            amplitude = np.exp(1j * k * a) / a * ft / (2.0 * math.pi)
            field += np.exp(1j * k * d) / d * amplitude
            field *= math.sqrt(normalization_c2(ctx, atom))
    return np.where(singular, np.nan, field)


def quadrature_convergence_check(ctx: ScatteringContext, width, g0, g1) -> None:
    """Verify the flux quadrature against its closed form.

    1 - |C|^2 is set by int_0^pi sin(theta) exp(-q^2 s^2) dtheta, which
    equals (1 - exp(-4 k^2 s^2)) / (2 k^2 s^2).  Raises ValueError if the
    128-node value that |C|^2 uses differs from it by more than 1e-8
    relative, at any distinct width among the atoms with a non-zero
    coupling.  ``width``, ``g0`` and ``g1`` are one atom's values or
    equal-length arrays over a gas.  The error depends only on k s: the
    check first fails at k s = 101.7, passes again from 112.7 to 114.1,
    where the error changes sign, and fails beyond.
    """
    coupled = (np.asarray(g0) > 0.0) | (np.asarray(g1) > 0.0)
    for s in sorted(set(np.asarray(width, dtype=float)[coupled].tolist())):
        _, w, sin_t, envelope = _node_factors(ctx.k, s)
        quad = 0.5 * math.pi * float(np.sum(w * sin_t * envelope * envelope))
        ks = ctx.k * s
        # 0 below k s ~ 1e-162; inf above 1e154, where exact is 0 and the check fails
        x = 2.0 * ks**2 if ks < 1e154 else math.inf
        exact = -math.expm1(-2.0 * x) / x if x > 0.0 else 2.0
        if not abs(quad - exact) < 1e-8 * exact:
            raise ValueError(
                f"flux quadrature not converged at n={_QUAD_NODES} for k*s = {ks:g}: "
                f"scattered integral {quad!r} vs closed form {exact!r}"
            )
