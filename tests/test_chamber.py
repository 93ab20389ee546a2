import json
import math
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mottbox
from mottbox import chamber, mott
from mottbox.chamber import (
    ATOM_DTYPE,
    AtomSpecies,
    GasConfiguration,
    build_chains,
    cone_half_angle,
    configuration_from_dict,
    direction_bin,
    isotropy_experiment,
    load_configuration,
    off_chain_c2_product,
    sample_gas,
    save_configuration,
    second_order_amplitude,
    select_track,
)
from mottbox.mott import ScatteringContext, atom, flux_free, normalization_c2
from mottbox.numerics import RngStream, chi2_sf, unit
from forks import assert_no_child_left, on_cpus
from oracles import (
    build_chains_scan,
    chi2_sf_mpmath,
    cone_candidates_scan,
    configuration_to_dict,
    direction_bin_scalar,
    isotropy_per_config,
    isotropy_result,
    off_chain_c2_product_loop,
    select_track_scan,
    species_at,
    track_winners_lexsort,
    ulps_from,
)

CTX = ScatteringContext.from_wavenumber(10.0, 0.01)
SPECIES = AtomSpecies(width=1.0, g0=0.5, g1=0.5, delta_e=0.01)

COLLINEAR_RADII = (10.0, 20.0, 30.0, 40.0, 50.0)


def collinear_fixture(n_background=20, seed=1717):
    """Five aligned atoms on +z plus background atoms that provably chain with
    nothing, even for acceptance cones up to twice the default half-angle."""
    guard_angle = 1.2 * cone_half_angle(CTX, SPECIES.width, envelope_drop=2.0)
    positions = [np.array([0.0, 0.0, r]) for r in COLLINEAR_RADII]

    def links_nothing(candidate):
        # no ordered pair (x, y) with |y| > |x| may put y inside x's forward
        # cone, apart from the aligned set itself
        for p in positions:
            for x, y in ((p, candidate), (candidate, p)):
                rx, ry = np.linalg.norm(x), np.linalg.norm(y)
                if ry <= rx:
                    continue
                disp = y - x
                cos_angle = float(x @ disp) / (rx * np.linalg.norm(disp))
                if math.acos(min(1.0, max(-1.0, cos_angle))) <= guard_angle:
                    return False
        return True

    attempt = 0
    while len(positions) < 5 + n_background:
        attempt += 1
        if attempt > 10_000:
            raise RuntimeError("could not build the background fixture")
        draw = RngStream(seed, attempt)
        direction = unit(draw.standard_normal(3))
        if direction[2] > -0.05:
            continue  # keep background away from the +z chain
        radius = 11.0 + 44.0 * float(draw.uniform())
        candidate = radius * direction
        if links_nothing(candidate):
            positions.append(candidate)
    return GasConfiguration(
        atoms=SPECIES.records(positions), chamber_radius=60.0, inner_radius=10.0, seed=seed, stream_id=0
    )


def test_atom_species_validation():
    with pytest.raises(ValueError):
        AtomSpecies(width=0.0, g0=0.1, g1=0.1)
    with pytest.raises(ValueError):
        AtomSpecies(width=1.0, g0=-0.1, g1=0.1)


def test_sample_gas_zero_density_is_empty():
    gas = sample_gas(0.0, 12.0, 40.0, SPECIES, RngStream(3, 0))
    assert gas.n_atoms == 0


def test_sample_gas_deterministic():
    a = sample_gas(1e-4, 12.0, 40.0, SPECIES, RngStream(5, 7))
    b = sample_gas(1e-4, 12.0, 40.0, SPECIES, RngStream(5, 7))
    assert a.n_atoms == b.n_atoms
    assert np.array_equal(a.atoms, b.atoms)


def test_sample_gas_atoms_inside_shell():
    gas = sample_gas(2e-4, 12.0, 40.0, SPECIES, RngStream(11, 0))
    radii = np.linalg.norm(gas.atoms["position"], axis=1)
    assert gas.n_atoms > 0
    assert np.all(radii >= 12.0) and np.all(radii <= 40.0)


def test_sample_gas_poisson_count_bounds():
    # mean count 100: Poisson mass inside [50, 160] is 0.99999998
    inner, outer = 12.0, 40.0
    volume = 4.0 * math.pi / 3.0 * (outer**3 - inner**3)
    density = 100.0 / volume
    counts = [
        sample_gas(density, inner, outer, SPECIES, RngStream(1000 + s, 0)).n_atoms
        for s in range(20)
    ]
    assert all(50 <= c <= 160 for c in counts)
    assert 80 <= np.mean(counts) <= 120


# the benchmark's seeds (1 and 201-210) and a few more
SAMPLING_SEEDS = (0, 1, 2, 7, 99, *range(201, 211), 2**63 + 5)


def per_atom_positions(density, inner, outer, rng):
    """The sampler's positions as one radii[i] * unit(normals[i]) per atom."""
    volume = 4.0 * math.pi / 3.0 * (outer**3 - inner**3)
    count = rng.poisson(density * volume)
    normals = rng.standard_normal(size=(count, 3))
    u = rng.uniform(size=count)
    radii = np.cbrt(inner**3 + u * (outer**3 - inner**3))
    return np.array([radii[i] * unit(normals[i]) for i in range(count)]).reshape(-1, 3)


def test_sample_gas_positions_bit_equal_to_per_atom_form():
    # stored gases and pinned outputs rely on these exact bits; an einsum or
    # sum(axis=1) norm moves the last bit of most configurations
    n_atoms = 0
    for seed in SAMPLING_SEEDS:
        cases = [(1e-4, stream) for stream in range(1, 21)] + [(2e-2, 0)]
        for density, stream in cases:
            gas = sample_gas(density, 12.0, 40.0, SPECIES, RngStream(seed, stream))
            expected = per_atom_positions(density, 12.0, 40.0, RngStream(seed, stream))
            assert gas.atoms["position"].tobytes() == expected.tobytes(), (seed, stream)
            n_atoms += gas.n_atoms
    assert n_atoms > 50_000


def test_sample_gas_resource_guard():
    with pytest.raises(ValueError, match="guard"):
        sample_gas(1e6, 12.0, 400.0, SPECIES, RngStream(1, 0))


def test_cone_half_angle_value():
    assert cone_half_angle(CTX, 1.0) == pytest.approx(0.10004171361154003, rel=1e-12)


def test_cone_half_angle_small_angle_limit():
    ctx = ScatteringContext.from_wavenumber(1e4)
    assert cone_half_angle(ctx, 1.0) == pytest.approx(1e-4, rel=1e-6)


def test_cone_half_angle_wide_cone_warns():
    ctx = ScatteringContext.from_wavenumber(1.0)
    with pytest.warns(UserWarning, match="wide-cone"):
        theta = cone_half_angle(ctx, 1.0)
    assert theta == pytest.approx(math.pi / 3.0, rel=1e-12)


def test_cone_half_angle_no_cone_error():
    ctx = ScatteringContext.from_wavenumber(0.5)
    with pytest.raises(ValueError, match="no forward cone"):
        cone_half_angle(ctx, 1.0)


def test_second_order_amplitude_peaks_on_ray():
    atom_a = species_at(SPECIES, [0.0, 0.0, 12.0])
    separation = 20.0
    moduli = []
    for theta in (0.0, 0.05, 0.2, 0.5):
        offset = separation * np.array([math.sin(theta), 0.0, math.cos(theta)])
        atom_b = species_at(SPECIES, atom_a["position"] + offset)
        moduli.append(abs(second_order_amplitude(CTX, atom_a, atom_b)))
    assert moduli[0] == max(moduli)
    assert np.all(np.diff(moduli) < 0.0)


def test_second_order_amplitude_perpendicular_suppressed():
    atom_a = species_at(SPECIES, [0.0, 0.0, 12.0])
    atom_b = species_at(SPECIES, [20.0, 0.0, 12.0])  # quarter-turn off the a-direction
    assert abs(second_order_amplitude(CTX, atom_a, atom_b)) < 1e-40


def test_second_order_amplitude_selectivity_factor():
    # on-ray amplitude beats the 3-theta_c amplitude by at least e^4 at k s >= 10
    theta_c = cone_half_angle(CTX, SPECIES.width)
    atom_a = species_at(SPECIES, [0.0, 0.0, 12.0])
    separation = 20.0
    on_ray = species_at(SPECIES, atom_a["position"] + separation * np.array([0.0, 0.0, 1.0]))
    off = species_at(
        SPECIES,
        atom_a["position"]
        + separation * np.array([math.sin(3 * theta_c), 0.0, math.cos(3 * theta_c)])
    )
    ratio = abs(second_order_amplitude(CTX, atom_a, on_ray)) / abs(
        second_order_amplitude(CTX, atom_a, off)
    )
    assert ratio >= math.exp(4.0)


def test_second_order_amplitude_vanishes_without_inelastic_coupling():
    quiet = AtomSpecies(width=1.0, g0=0.5, g1=0.0, delta_e=0.01)
    atom_a = species_at(quiet, [0.0, 0.0, 12.0])
    atom_b = species_at(quiet, [0.0, 0.0, 32.0])
    assert second_order_amplitude(CTX, atom_a, atom_b) == 0.0


def test_second_order_amplitude_requires_outward_order():
    atom_a = species_at(SPECIES, [0.0, 0.0, 30.0])
    atom_b = species_at(SPECIES, [0.0, 0.0, 12.0])
    with pytest.raises(ValueError, match="farther"):
        second_order_amplitude(CTX, atom_a, atom_b)


# (k, delta_e, atom a, atom b as (position, width, g0, g1)) and the bits of
# their second-order amplitude, taken before angular_amplitude took arrays
SECOND_ORDER_BITS = [
    (10.0, 0.01, ([0.0, 0.0, 12.0], 1.0, 0.5, 0.5), ([0.0, 0.0, 32.0], 1.0, 0.5, 0.5),
     "0x1.83a0ce3a7285dp-8", "-0x1.6f4c9a3a2cdb7p-9"),
    (10.0, 0.01, ([0.0, 0.0, 12.0], 1.0, 0.5, 0.5),
     ([20.0 * math.sin(0.05), 0.0, 12.0 + 20.0 * math.cos(0.05)], 1.0, 0.5, 0.5),
     "0x1.5616ec870e508p-8", "-0x1.44261c77a9cdep-9"),
    (10.0, 0.01, ([3.0, -4.0, 12.0], 1.0, 0.5, 0.7), ([5.0, -7.0, 30.0], 1.2, 0.2, 0.9),
     "0x1.bf026008c0451p-9", "-0x1.2737227fb57c3p-9"),
    (1.9, 0.0, ([0.0, 12.0, 0.0], 1.0, 0.1, 2.0), ([2.0, 25.0, 1.0], 1.0, 0.1, 1.5),
     "-0x1.56393c9043ae5p-4", "-0x1.37bf8ed147df6p-4"),
    (55.0, 0.5, ([7.0, 8.0, 9.0], 1.0, 0.3, 0.4), ([14.0, 16.1, 18.0], 1.0, 0.3, 0.4),
     "-0x1.78c4cbac2f2bcp-9", "0x1.041196ec43511p-8"),
]


@pytest.mark.parametrize("k, delta_e, a, b, real, imag", SECOND_ORDER_BITS)
def test_second_order_amplitude_keeps_its_bits(k, delta_e, a, b, real, imag):
    ctx = ScatteringContext.from_wavenumber(k, delta_e)
    got = second_order_amplitude(ctx, atom(*a, delta_e=delta_e), atom(*b, delta_e=delta_e))
    assert type(got) is complex
    assert (got.real.hex(), got.imag.hex()) == (real, imag)


def test_build_chains_empty():
    gas = GasConfiguration(atoms=(), chamber_radius=40.0, inner_radius=12.0, seed=0)
    assert build_chains(gas, CTX, 0.1) == []


def test_build_chains_collinear_fixture():
    gas = collinear_fixture()
    theta_c = cone_half_angle(CTX, SPECIES.width)
    chains = build_chains(gas, CTX, theta_c)
    long_chains = [c for c in chains if c.n > 1]
    assert len(long_chains) == 1
    assert long_chains[0].indices == (0, 1, 2, 3, 4)
    assert len(chains) == 1 + 20  # the aligned chain plus background singletons
    assert np.allclose(long_chains[0].direction, [0.0, 0.0, 1.0])


def test_build_chains_cone_boundary():
    theta_c = cone_half_angle(CTX, SPECIES.width)
    head = np.array([0.0, 0.0, 12.0])
    for delta, expect_link in ((-1e-6, True), (+1e-6, False)):
        theta = theta_c + delta
        second = head + 6.0 * np.array([math.sin(theta), 0.0, math.cos(theta)])
        gas = GasConfiguration(
            atoms=SPECIES.records([head, second]),
            chamber_radius=40.0,
            inner_radius=10.0,
            seed=0,
        )
        chains = build_chains(gas, CTX, theta_c)
        if expect_link:
            assert len(chains) == 1 and chains[0].indices == (0, 1)
        else:
            assert len(chains) == 2 and all(c.n == 1 for c in chains)


def test_build_chains_radii_strictly_increase():
    gas = sample_gas(3e-4, 12.0, 40.0, SPECIES, RngStream(23, 0))
    theta_c = cone_half_angle(CTX, SPECIES.width)
    radii = np.linalg.norm(gas.atoms["position"], axis=1)
    for chain in build_chains(gas, CTX, theta_c):
        chain_radii = radii[list(chain.indices)]
        assert np.all(np.diff(chain_radii) > 0.0)


def test_build_chains_members_inside_head_cone():
    gas = sample_gas(3e-4, 12.0, 40.0, SPECIES, RngStream(29, 0))
    theta_c = cone_half_angle(CTX, SPECIES.width)
    pos = gas.atoms["position"]
    for chain in build_chains(gas, CTX, theta_c):
        axis = chain.direction
        for prev, nxt in zip(chain.indices, chain.indices[1:]):
            step = pos[nxt] - pos[prev]
            cos_angle = float(step @ axis) / np.linalg.norm(step)
            assert math.acos(min(1.0, max(-1.0, cos_angle))) <= theta_c + 1e-12


def assert_chains_match_scan(gas, theta_c):
    chains = build_chains(gas, CTX, theta_c)
    expected = build_chains_scan(gas, CTX, theta_c)
    assert [c.indices for c in chains] == [c.indices for c in expected]
    for chain, reference in zip(chains, expected):
        assert chain.direction.tobytes() == reference.direction.tobytes()
    return chains


def test_build_chains_matches_scan_on_sampled_gases():
    theta_c = cone_half_angle(CTX, SPECIES.width)
    cases = [(1e-4, stream) for stream in range(1, 221)] + [(2e-3, stream) for stream in range(5)]
    longest = 0
    for density, stream in cases + [(2e-2, 0)]:
        gas = sample_gas(density, 12.0, 40.0, SPECIES, RngStream(4242, stream))
        longest = max(longest, max((c.n for c in assert_chains_match_scan(gas, theta_c)), default=0))
    assert longest >= 3


def test_build_chains_matches_scan_in_wide_cone():
    # k s = 0.6 puts the cone edge beyond pi/2, where it is no longer convex;
    # k s = 1 (pi/3) and 1.94 (just inside WIDE_CONE_ANGLE) sit either side
    # of the switch to scanning every atom
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        cones = {
            k: cone_half_angle(ScatteringContext.from_wavenumber(k), SPECIES.width)
            for k in (0.6, 1.0, 1.94)
        }
    assert cones[0.6] > math.pi / 2 and cones[1.94] <= chamber.WIDE_CONE_ANGLE < cones[1.0]
    for k, density in ((0.6, 2e-3), (1.0, 2e-3), (1.94, 5e-3)):
        for stream in range(3):
            gas = sample_gas(density, 12.0, 40.0, SPECIES, RngStream(4243, stream))
            assert max(c.n for c in assert_chains_match_scan(gas, cones[k])) > 1


def test_build_chains_lists_candidates_only_up_to_wide_cone(monkeypatch):
    calls = []
    listing = chamber._cone_candidates
    monkeypatch.setattr(chamber, "_cone_candidates", lambda *args: calls.append(args) or listing(*args))
    gas = sample_gas(2e-3, 12.0, 40.0, SPECIES, RngStream(4243, 0))
    build_chains(gas, CTX, chamber.WIDE_CONE_ANGLE)
    assert len(calls) == 1
    build_chains(gas, CTX, math.nextafter(chamber.WIDE_CONE_ANGLE, 1.0))
    assert len(calls) == 1


def assert_candidates_match_scan(pos, offsets, theta_c):
    # every head's candidate list against the all-atoms test; returns the lists
    pos = np.ascontiguousarray(pos)
    gas = chamber._gas_of_atoms(np.asarray(offsets))
    radii = np.sqrt(np.sum(pos * pos, axis=1))
    cos_m = math.cos(theta_c) - chamber.CANDIDATE_COS_SLACK
    members, start, end = chamber._cone_candidates(radii, pos / radii[:, None], gas, cos_m)
    lists = [members[lo:hi].tolist() for lo, hi in zip(start, end)]
    assert lists == cone_candidates_scan(pos, gas, cos_m)
    return lists


@pytest.mark.parametrize("k, density", [(10.0, 8e-3), (1.94, 4e-3)])
def test_cone_candidates_match_scan_on_one_gas(k, density):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        theta_c = cone_half_angle(ScatteringContext.from_wavenumber(k, 0.01), SPECIES.width)
    gas = sample_gas(density, 12.0, 40.0, SPECIES, RngStream(4245, 0))
    lists = assert_candidates_match_scan(gas.atoms["position"], [0, gas.n_atoms], theta_c)
    assert gas.n_atoms > 1000 and sum(map(len, lists)) > 1.2 * gas.n_atoms


def test_cone_candidates_match_scan_across_gases_with_empty_ones():
    theta_c = cone_half_angle(ScatteringContext.from_wavenumber(1.94, 0.01), SPECIES.width)
    gases = [sample_gas(density, 12.0, 40.0, SPECIES, RngStream(4246, i))
             for i, density in enumerate((3e-3, 0.0, 1e-4, 0.0, 0.0, 3e-3, 1e-4, 0.0))]
    offsets = np.cumsum([0] + [gas.n_atoms for gas in gases])
    pos = np.concatenate([gas.atoms["position"] for gas in gases])
    assert_candidates_match_scan(pos, offsets, theta_c)


def test_cone_candidates_at_band_edges_and_reach_apart():
    # directions whose z sits on, or one ulp either side of, the edges of the
    # z bands (the poles included), at x offsets of 0, reach / 2 and reach
    theta_c = cone_half_angle(CTX, SPECIES.width)
    reach = math.sqrt(2.0 * (1.0 - math.cos(theta_c) + chamber.CANDIDATE_COS_SLACK)) + 1e-7
    n_bands = int(2.0 / reach)
    edges = [2.0 * b / n_bands - 1.0 for b in (0, 1, n_bands // 2, n_bands - 1, n_bands)]
    dirs = []
    for edge in edges:
        for z in (math.nextafter(edge, -1.0), edge, math.nextafter(edge, 1.0)):
            rho = math.sqrt(1.0 - z * z)
            for x in {min(rho, x) for x in (0.0, 0.5 * reach, reach, -0.5 * reach, -reach)}:
                dirs.append([x, math.sqrt(max(0.0, rho * rho - x * x)), z])
    pos = np.concatenate([r * np.array(dirs) for r in (15.0, 20.5, 26.0, 33.0)])
    lists = assert_candidates_match_scan(pos, [0, len(pos)], theta_c)
    z = pos[:, 2] / np.sqrt(np.sum(pos * pos, axis=1))
    assert np.isin(z, edges).sum() > len(edges)
    band = np.minimum(((z + 1.0) * (0.5 * n_bands)).astype(int), n_bands - 1)
    assert any(band[j] != band[h] for h, listed in enumerate(lists) for j in listed)


def test_cone_candidates_on_the_cone_edge():
    # steps of several lengths at the candidate cone's edge angle, 1e-9 rad
    # either side of it and 0.03 rad outside: the first three lie inside
    # the listing's margin of 1e-6 outer radii, so all are listed however
    # the rounding falls, and the last never is. The chains over these
    # atoms are those of a step-by-step scan
    theta_c = cone_half_angle(CTX, SPECIES.width)
    edge = math.acos(math.cos(theta_c) - chamber.CANDIDATE_COS_SLACK)
    heads = RngStream(4248, 0).standard_normal(size=(12, 3))
    heads *= (np.linspace(13.0, 30.0, 12) / np.sqrt(np.sum(heads * heads, axis=1)))[:, None]
    pos = []
    for head in heads:
        axis = head / np.linalg.norm(head)
        side = np.cross(axis, [0.0, 0.0, 1.0])
        side /= np.linalg.norm(side)
        for turn in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False):
            across = math.cos(turn) * side + math.sin(turn) * np.cross(axis, side)
            for angle in (edge - 1e-9, edge, edge + 1e-9, edge + 0.03):
                for length in (0.01, 0.7, 6.0):
                    pos.append(head + length * (math.cos(angle) * axis + math.sin(angle) * across))
    pos = np.concatenate([heads, pos])
    lists = assert_candidates_match_scan(pos, [0, len(pos)], theta_c)
    per_head = np.arange(len(heads) * 60).reshape(len(heads), 5, 4, 3) + len(heads)
    listed = [np.isin(per_head[h], lists[h]) for h in range(len(heads))]
    assert all(inside[:, :3].all() and not inside[:, 3].any() for inside in listed)
    radii = np.sqrt(np.sum(pos * pos, axis=1))
    assert 13.0 <= radii.min() and radii.max() < 36.0
    gas = GasConfiguration(atoms=SPECIES.records(pos), chamber_radius=40.0, inner_radius=12.0, seed=0)
    assert_chains_match_scan(gas, theta_c)


def test_build_chains_matches_scan_on_mixed_widths():
    narrow = AtomSpecies(width=0.4, g0=0.5, g1=0.5, delta_e=0.01)
    a = sample_gas(2e-3, 12.0, 40.0, SPECIES, RngStream(4244, 1))
    b = sample_gas(2e-3, 12.0, 40.0, narrow, RngStream(4244, 2))
    gas = GasConfiguration(
        atoms=np.concatenate([b.atoms, a.atoms]), chamber_radius=40.0, inner_radius=12.0, seed=4244
    )
    for width in (SPECIES.width, narrow.width):
        assert_chains_match_scan(gas, cone_half_angle(CTX, width))


def test_build_chains_equal_distance_tie_goes_to_smallest_index():
    # two mirror-image atoms at exactly the same distance from the head, both
    # inside its cone: the chain continues with the smaller index
    theta_c = cone_half_angle(CTX, SPECIES.width)
    head = np.array([0.0, 0.0, 12.0])
    step = 5.0 * np.array([math.sin(0.5 * theta_c), 0.0, math.cos(0.5 * theta_c)])
    plus, minus = head + step, head + step * np.array([-1.0, 1.0, 1.0])
    for positions, expected in (([head, plus, minus], (0, 1)), ([minus, head, plus], (1, 0))):
        gas = GasConfiguration(
            atoms=SPECIES.records(positions), chamber_radius=40.0, inner_radius=10.0, seed=0
        )
        chains = assert_chains_match_scan(gas, theta_c)
        assert chains[0].indices == expected


def test_build_chains_wide_cone_distance_tie_goes_to_smallest_index():
    # both atoms lie 5 from the head, exactly, inside a pi/3 cone; the farther
    # one has the smaller index, so the tie does not follow radius order
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        theta_c = cone_half_angle(ScatteringContext.from_wavenumber(1.0), SPECIES.width)
    assert theta_c > chamber.WIDE_CONE_ANGLE
    positions = [[0.0, 0.0, 17.0], [3.0, 0.0, 16.0], [0.0, 0.0, 12.0]]
    gas = GasConfiguration(atoms=SPECIES.records(positions), chamber_radius=40.0, inner_radius=10.0, seed=0)
    assert [c.indices for c in assert_chains_match_scan(gas, theta_c)] == [(2, 0), (1,)]


def cone_edge_gases(theta_c):
    """300 gases of six atoms whose second atom sits on the cone edge as seen
    from the first, so whether the two link comes down to the last bit of the
    predicate.  The four atoms on the far side of the shell, at shifting list
    positions, make a scan run over more rows than the head's candidates.
    Yields the head's index, the edge atom's index and the gas."""
    draw = RngStream(4245, 0)
    for trial in range(300):
        axis = unit(draw.standard_normal(3))
        side = unit(np.cross(axis, draw.standard_normal(3)))
        head = (12.0 + 5.0 * float(draw.uniform())) * axis
        edge = head + (3.0 + 10.0 * float(draw.uniform())) * (
            math.cos(theta_c) * axis + math.sin(theta_c) * side
        )
        positions = [
            (20.0 + 15.0 * float(draw.uniform())) * unit(0.3 * draw.standard_normal(3) - axis)
            for _ in range(4)
        ]
        i = trial % 5
        j = i + 1 + (trial // 5) % (5 - i)
        positions.insert(i, head)
        positions.insert(j, edge)
        yield i, j, GasConfiguration(
            atoms=SPECIES.records(positions), chamber_radius=40.0, inner_radius=10.0, seed=0
        )


def test_build_chains_matches_scan_on_cone_edge():
    theta_c = cone_half_angle(CTX, SPECIES.width)
    linked = 0
    for i, j, gas in cone_edge_gases(theta_c):
        linked += (i, j) in [c.indices for c in assert_chains_match_scan(gas, theta_c)]
    assert 0 < linked < 300


CHAINS_SCRIPT = """
import pickle
import sys
import numpy as np
from mottbox import chamber
_, heads, lengths, grown = chamber._chains(np.load(sys.argv[1]), np.load(sys.argv[2]), float(sys.argv[3]))
pickle.dump((heads.tolist(), lengths.tolist(), grown), sys.stdout.buffer)
"""


def test_chains_do_not_depend_on_the_blas_kernel(tmp_path):
    # the 300 cone-edge gases, whose links come down to the last bit of the
    # cone predicate, with OpenBLAS's Prescott kernel in a child and its
    # default kernel here. The positions go by file: unit() calls BLAS, so
    # the child could not rebuild the same gases. This cannot fail where
    # OpenBLAS ignores OPENBLAS_CORETYPE: on a non-x86 host, or on a build
    # without DYNAMIC_ARCH
    theta_c = cone_half_angle(CTX, SPECIES.width)
    gases = [gas for _, _, gas in cone_edge_gases(theta_c)]
    offsets = np.cumsum([0] + [gas.n_atoms for gas in gases])
    pos = np.ascontiguousarray(np.concatenate([gas.atoms["position"] for gas in gases]))
    np.save(tmp_path / "pos.npy", pos)
    np.save(tmp_path / "offsets.npy", offsets)
    src = str(Path(mottbox.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", CHAINS_SCRIPT, str(tmp_path / "pos.npy"), str(tmp_path / "offsets.npy"),
         repr(theta_c)], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr.decode()
    _, heads, lengths, grown = chamber._chains(pos, offsets, theta_c)
    assert pickle.loads(result.stdout) == (heads.tolist(), lengths.tolist(), grown)
    assert 100 < len(grown) < 300


def segmented_chains(gases, theta_c):
    # the chains of each gas from one _chains call over all gases, as tuples
    # of indices into that gas, gas by gas in visiting order
    offsets = np.cumsum([0] + [gas.n_atoms for gas in gases])
    pos = np.concatenate([gas.atoms["position"] for gas in gases])
    _, heads, lengths, grown = chamber._chains(pos, offsets, theta_c)
    assert (np.diff(heads) > 0).all()  # _chains gives its heads in index order
    gas = np.searchsorted(offsets, heads, side="right") - 1
    visit = np.lexsort((np.sqrt(np.sum(pos * pos, axis=1))[heads], gas))
    heads, lengths, gas = heads[visit], lengths[visit], gas[visit]
    chains = [[] for _ in gases]
    for g, head in zip(gas.tolist(), heads.tolist()):
        chains[g].append(tuple(m - offsets[g] for m in grown.get(head, [head])))
    assert lengths.tolist() == [len(c) for per_gas in chains for c in per_gas]
    return chains


def test_segmented_chains_on_cone_edges_grow_in_one_batch(monkeypatch):
    # every head of the 300 cone-edge gases grows in one batch, so the edge
    # steps of many chains share each array step
    theta_c = cone_half_angle(CTX, SPECIES.width)
    edges = list(cone_edge_gases(theta_c))
    batches = []
    grow = chamber._grow
    monkeypatch.setattr(chamber, "_grow", lambda *args: batches.append(len(args[6])) or grow(*args))
    chains = segmented_chains([gas for _, _, gas in edges], theta_c)
    assert len(batches) == 1 and batches[0] >= 300
    assert chains == [[c.indices for c in build_chains_scan(gas, CTX, theta_c)] for _, _, gas in edges]
    linked = sum((i, j) in per_gas for (i, j, _), per_gas in zip(edges, chains))
    assert 0 < linked < 300


@pytest.mark.parametrize("pairs", [1, 2**30])
def test_chains_do_not_depend_on_the_batch_size(monkeypatch, pairs):
    # a batch per head, or one batch for every head (candidate listing
    # included), against the default batches: a dense README gas, a whole
    # isotropy range and a gas at k s = 1.9, which lists every atom
    wide = ScatteringContext.from_wavenumber(1.9, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        wide_cone = cone_half_angle(wide, SPECIES.width)
    theta_c = cone_half_angle(CTX, SPECIES.width)
    (i0, i1), *_ = isotropy_ranges(200, 3e-4, 12.0, 40.0, SPECIES, CTX, RngStream(4250, 0))
    chunk = [sample_gas(3e-4, 12.0, 40.0, SPECIES, RngStream(4250, 1 + i)) for i in range(i0, i1)]
    cases = [
        ([sample_gas(2e-2, 12.0, 40.0, SPECIES, RngStream(4250, 1))], theta_c),
        (chunk, theta_c),
        ([sample_gas(2e-3, 12.0, 40.0, SPECIES, RngStream(4250, 2))], wide_cone),
    ]
    expected = [segmented_chains(*case) for case in cases]
    monkeypatch.setattr(chamber, "CANDIDATE_PAIRS", pairs)
    for case, chains in zip(cases, expected):
        assert segmented_chains(*case) == chains
    assert len(chunk) == chamber._CHUNK_BUDGET // (1.0 + expected_atoms(3e-4)) > 40
    assert cases[0][0][0].n_atoms > 5000
    assert max(len(c) for per_gas in expected for chains in per_gas for c in chains) > 3
    assert wide_cone > chamber.WIDE_CONE_ANGLE
    assert expected[2] == [[c.indices for c in build_chains_scan(cases[2][0][0], CTX, wide_cone)]]


def test_head_absorbed_within_its_batch_starts_no_chain(monkeypatch):
    # b lies in a's cone, so a's chain absorbs it; d lies in b's own cone but
    # outside a's, so b's chain, grown in the same batch as a's, would take
    # it.  That chain is dropped and d is a chain of its own
    theta_c = cone_half_angle(CTX, SPECIES.width)
    a = np.array([0.0, 0.0, 12.0])
    b = a + 8.0 * np.array([math.sin(0.5 * theta_c), 0.0, math.cos(0.5 * theta_c)])
    tilt = math.atan2(b[0], b[2]) + 0.9 * theta_c
    d = b + 5.0 * np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    gas = GasConfiguration(atoms=SPECIES.records([d, b, a]), chamber_radius=40.0, inner_radius=10.0, seed=0)
    batches = []
    grow = chamber._grow
    monkeypatch.setattr(chamber, "_grow", lambda *args: batches.append(args[6].tolist()) or grow(*args))
    chains = assert_chains_match_scan(gas, theta_c)
    assert batches == [[2, 1]]
    assert [c.indices for c in chains] == [(2, 1), (0,)]
    alone = GasConfiguration(atoms=SPECIES.records([d, b]), chamber_radius=40.0, inner_radius=10.0, seed=0)
    assert [c.indices for c in build_chains(alone, CTX, theta_c)] == [(1, 0)]


def test_select_track_empty_configuration():
    gas = GasConfiguration(atoms=(), chamber_radius=40.0, inner_radius=12.0, seed=0)
    assert select_track(gas, CTX) is None


def test_select_track_single_atom():
    record = species_at(SPECIES, [0.0, 15.0, 0.0])
    gas = GasConfiguration(atoms=np.array([record]), chamber_radius=40.0, inner_radius=10.0, seed=0)
    track = select_track(gas, CTX)
    assert track.chain.n == 1
    assert np.allclose(track.direction, [0.0, 1.0, 0.0], atol=1e-15)
    assert track.c2_per_step == normalization_c2(CTX, record)


def test_select_track_collinear_fixture():
    gas = collinear_fixture()
    track = select_track(gas, CTX)
    assert track.chain.indices == (0, 1, 2, 3, 4)
    c2 = normalization_c2(CTX, gas.atoms[0])
    assert track.c2_per_step == c2
    assert track.surviving_spherical_flux == flux_free(CTX) * c2**5
    assert track.flux_ratio == c2**5


def test_flux_reduction_law_closed_form():
    assert 0.9**5 == pytest.approx(0.59049, abs=1e-12)
    assert 0.9**50 == pytest.approx(5.15377520732012e-3, rel=1e-12)
    assert 0.9**50 < 1e-2


def test_select_track_deterministic_replay():
    gas = sample_gas(3e-4, 12.0, 40.0, SPECIES, RngStream(31, 4))
    first = select_track(gas, CTX)
    for _ in range(5):
        again = select_track(gas, CTX)
        assert np.array_equal(again.direction, first.direction)
        assert again.surviving_spherical_flux == first.surviving_spherical_flux
        assert again.chain.indices == first.chain.indices


def test_select_track_threshold_stability():
    # the selected track must not depend on the acceptance-cone threshold
    gas = collinear_fixture()
    tracks = [select_track(gas, CTX, envelope_drop=drop) for drop in (0.5, 1.0, 2.0)]
    for track in tracks[1:]:
        assert track.chain.indices == tracks[0].chain.indices
        assert np.array_equal(track.direction, tracks[0].direction)


def test_select_track_tie_break_prefers_smaller_flux():
    # two singletons: the nearer atom has the smaller |C|^2, hence smaller flux
    near = species_at(SPECIES, [0.0, 15.0, 0.0])
    far = species_at(SPECIES, [0.0, 0.0, -25.0])
    gas = GasConfiguration(
        atoms=np.array([far, near]),
        chamber_radius=40.0,
        inner_radius=10.0,
        seed=0,
    )
    track = select_track(gas, CTX)
    assert track.chain.head == 1
    assert normalization_c2(CTX, near) < normalization_c2(CTX, far)


def test_select_track_mixed_species_tie_break_orders_by_flux():
    # two singletons: the nearer atom couples weakly, so it has the larger
    # |C|^2; ordering by flux and ordering by distance pick different heads
    weak = AtomSpecies(width=1.0, g0=0.05, g1=0.05, delta_e=0.01)
    near, far = [0.0, 15.0, 0.0], [0.0, 0.0, -25.0]
    gas = GasConfiguration(
        atoms=np.concatenate([weak.records([near]), SPECIES.records([far])]),
        chamber_radius=40.0,
        inner_radius=10.0,
        seed=0,
    )
    c2_near = normalization_c2(CTX, species_at(weak, near))
    c2_far = normalization_c2(CTX, species_at(SPECIES, far))
    assert c2_near > c2_far
    track = select_track(gas, CTX)
    assert track.chain.head == 1
    assert track.c2_per_step == c2_far
    assert track.surviving_spherical_flux == flux_free(CTX) * c2_far


def test_mixed_species_json_roundtrip_byte_identical(tmp_path):
    heavy = AtomSpecies(width=0.8, g0=0.3, g1=0.7, delta_e=0.02)
    a = sample_gas(2e-4, 12.0, 40.0, SPECIES, RngStream(61, 5))
    b = sample_gas(2e-4, 12.0, 40.0, heavy, RngStream(61, 6))
    gas = GasConfiguration(
        atoms=np.concatenate([a.atoms, b.atoms]), chamber_radius=40.0, inner_radius=12.0, seed=61
    )
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_configuration(gas, first)
    loaded = load_configuration(first)
    save_configuration(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert loaded.atoms.tobytes() == gas.atoms.tobytes()
    assert {entry["s"] for entry in json.loads(first.read_text())["atoms"]} == {1.0, 0.8}


def test_save_configuration_writes_json_dump_text(tmp_path):
    heavy = AtomSpecies(width=0.8, g0=0.3, g1=0.7, delta_e=0.02)
    mixed = np.concatenate([
        sample_gas(2e-4, 12.0, 40.0, SPECIES, RngStream(62, 1)).atoms,
        sample_gas(2e-4, 12.0, 40.0, heavy, RngStream(62, 2)).atoms,
    ])
    # species fields of one bit pattern, where -0.0 and 0.0 are not one
    signed_zeros = sample_gas(2e-4, 12.0, 40.0, SPECIES, RngStream(62, 3)).atoms.copy()
    signed_zeros["delta_e"], signed_zeros["g1"] = 0.0, -0.0
    signed_zeros["delta_e"][1] = -0.0
    for gas in (
        sample_gas(2e-3, 12.0, 40.0, SPECIES, RngStream(62, 0)),
        sample_gas(3.5e-2, 12.0, 40.0, SPECIES, RngStream(62, 4)),  # 36 writes of 256 atoms and one of 19
        GasConfiguration(atoms=(), chamber_radius=40, inner_radius=12, seed=2**64 - 1, stream_id=3),
        GasConfiguration(atoms=mixed, chamber_radius=40.0, inner_radius=12.0, seed=62),
        GasConfiguration(atoms=mixed[:1], chamber_radius=40.0, inner_radius=12.0, seed=62),
        GasConfiguration(atoms=signed_zeros, chamber_radius=40.0, inner_radius=12.0, seed=62),
    ):
        path = tmp_path / "gas.json"
        save_configuration(gas, path)
        assert path.read_text(encoding="utf-8") == json.dumps(configuration_to_dict(gas), indent=1) + "\n"


def test_save_configuration_peak_memory_stays_under_half_a_megabyte(tmp_path):
    # the text is formatted 256 atom entries at a time: the 5356-atom gas of
    # a dense track peaks at 0.28 MB (1.21 MB with 2048-entry blocks)
    gas = sample_gas(2e-2, 12.0, 40.0, SPECIES, RngStream(3, 0))
    tracemalloc.start()
    try:
        save_configuration(gas, tmp_path / "gas.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gas.n_atoms == 5356 and peak < 0.5e6


def test_gas_configuration_rejects_bad_records():
    def gas_with(**fields):
        atoms = SPECIES.records([[0.0, 0.0, 20.0], [0.0, 30.0, 0.0]])
        for name, value in fields.items():
            atoms[name][1] = value
        return GasConfiguration(atoms=atoms, chamber_radius=40.0, inner_radius=12.0, seed=0)

    for fields, message in (
        ({"position": [np.inf, 0.0, 0.0]}, "finite norm"),
        ({"position": [1e200, 1e200, 0.0]}, "finite norm"),
        ({"width": 0.0}, "width"),
        ({"width": np.nan}, "width"),
        ({"g1": -0.1}, "couplings"),
        ({"g0": np.inf}, "couplings"),
        ({"g1": np.nan}, "couplings"),
        ({"delta_e": -0.01}, "excitation"),
        ({"delta_e": np.nan}, "excitation"),
        ({"position": [0.0, 0.0, 12.0], "width": 1.25}, "far-field"),
    ):
        with pytest.raises(ValueError, match=f"atom 1: .*{message}"):
            gas_with(**fields)
    with pytest.raises(ValueError, match="ATOM_DTYPE"):
        GasConfiguration(atoms=np.zeros((1, 7)), chamber_radius=40.0, inner_radius=12.0, seed=0)
    # a tuple of mott.atom records is a gas as it stands
    single = GasConfiguration(
        atoms=(species_at(SPECIES, [0.0, 0.0, 20.0]),), chamber_radius=40.0, inner_radius=12.0, seed=0
    )
    assert single.atoms.tobytes() == SPECIES.records([[0.0, 0.0, 20.0]]).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # finite couplings whose sum overflows are valid
        gas_with(g0=1e308, g1=1e308)
    gas = gas_with()
    with pytest.raises(ValueError, match="read-only"):
        gas.atoms["g0"][0] = 1.0


def test_gas_configuration_keeps_fresh_read_only_records_and_copies_any_other(monkeypatch, tmp_path):
    fresh = sample_gas(8e-2, 12.0, 40.0, SPECIES, RngStream(64, 0)).atoms.copy()
    assert len(fresh) > 20_000
    fresh.setflags(write=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        gas = GasConfiguration(atoms=fresh, chamber_radius=40.0, inner_radius=12.0, seed=64)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert gas.atoms is fresh and kept < len(fresh)  # under a byte per atom (a copy keeps 56)
    # a writable array, and a read-only view such as a slice, are copied
    writable = fresh.copy()
    gas = GasConfiguration(atoms=writable, chamber_radius=40.0, inner_radius=12.0, seed=64)
    writable["g0"] = 0.25
    assert gas.atoms.tobytes() == fresh.tobytes() and not gas.atoms.flags.writeable
    view = fresh[:100]
    assert GasConfiguration(atoms=view, chamber_radius=40.0, inner_radius=12.0, seed=64).atoms.base is None
    # sample_gas and the gas.json reader hand their records over
    made = []
    monkeypatch.setattr(chamber, "_records", lambda *args: made.append(mott._records(*args)) or made[-1])
    assert sample_gas(1e-3, 12.0, 40.0, SPECIES, RngStream(64, 1)).atoms is made[-1]
    save_configuration(gas, tmp_path / "gas.json")
    assert load_configuration(tmp_path / "gas.json").atoms is made[-1]


@pytest.mark.parametrize(
    "radius, width, g0, g1, delta_e, verdict",
    [
        (20.0, 1.0, 0.5, 0.5, 0.01, "valid"),
        (20.0, 1.2, 0.0, 0.0, 0.0, "valid"),
        (12.0, 1.2, 1e308, 1e308, 0.0, "valid"),
        (20.0, np.nan, 0.5, 0.5, 0.01, "invalid"),
        (20.0, np.inf, 0.5, 0.5, 0.01, "invalid"),
        (20.0, -np.inf, 0.5, 0.5, 0.01, "invalid"),
        (20.0, 0.0, 0.5, 0.5, 0.01, "invalid"),
        (20.0, -1.0, 0.5, 0.5, 0.01, "invalid"),
        (20.0, 1.0, np.nan, 0.5, 0.01, "invalid"),
        (20.0, 1.0, 0.5, np.nan, 0.01, "invalid"),
        (20.0, 1.0, np.inf, 0.5, 0.01, "invalid"),
        (20.0, 1.0, 0.5, np.inf, 0.01, "invalid"),
        (20.0, 1.0, -np.inf, 0.5, 0.01, "invalid"),
        (20.0, 1.0, -0.1, 0.5, 0.01, "invalid"),
        (20.0, 1.0, 0.5, -0.1, 0.01, "invalid"),
        (20.0, 1.0, 0.5, 0.5, np.nan, "invalid"),
        (20.0, 1.0, 0.5, 0.5, np.inf, "invalid"),
        (20.0, 1.0, 0.5, 0.5, -0.01, "invalid"),
        (12.0, 1.25, 0.5, 0.5, 0.01, "near field"),  # a/s = 9.6
    ],
)
def test_atom_rules_agree(radius, width, g0, g1, delta_e, verdict):
    # mott.atom, AtomSpecies and GasConfiguration apply one rule set; a
    # species has no position, so it alone accepts the near-field atom
    position = [0.0, 0.0, radius]
    atoms = np.zeros(1, ATOM_DTYPE)
    atoms[0] = (position, width, g0, g1, delta_e)
    builds = {
        "atom": lambda: atom(position, width, g0, g1, delta_e),
        "AtomSpecies": lambda: AtomSpecies(width, g0, g1, delta_e),
        "GasConfiguration": lambda: GasConfiguration(
            atoms=atoms, chamber_radius=40.0, inner_radius=12.0, seed=0
        ),
    }
    verdicts = {}
    for name, build in builds.items():
        try:
            build()
            verdicts[name] = True
        except ValueError:
            verdicts[name] = False
    valid = verdict == "valid"
    assert verdicts == {"atom": valid, "AtomSpecies": verdict != "invalid", "GasConfiguration": valid}


def test_off_chain_c2_product():
    # the array product has the bits of one normalization_c2 per off-chain
    # atom, multiplied in index order
    dense = sample_gas(2e-2, 12.0, 40.0, SPECIES, RngStream(29, 0))
    for gas in (collinear_fixture(n_background=3), dense):
        chain = select_track(gas, CTX).chain
        expected = off_chain_c2_product_loop(gas, CTX, chain)
        assert off_chain_c2_product(gas, CTX, chain) == expected
        assert expected < 1.0
    assert dense.n_atoms > 5000
    aligned = collinear_fixture(n_background=0)  # every atom on the chain
    assert off_chain_c2_product(aligned, CTX, select_track(aligned, CTX).chain) == 1.0


def test_direction_bin_equal_area_layout():
    assert direction_bin([0.0, 0.0, -1.0]) in range(8)
    assert direction_bin([0.0, 0.0, 1.0]) >= 24
    assert direction_bin([1.0, 0.1, 0.1]) != direction_bin([-1.0, -0.1, 0.1])


def test_direction_bin_of_many_rows_matches_scalar_formula():
    dirs = RngStream(4247, 0).standard_normal(size=(10**6, 3))
    dirs /= np.sqrt(np.sum(dirs * dirs, axis=1))[:, None]
    # one and two ulps either side of every sector edge, band edge and pole
    near = []
    for phi in np.linspace(-math.pi, math.pi, 2 * chamber.N_PHI_SECTORS + 1):
        for x0, y0 in ((math.cos(phi), math.sin(phi)), (round(math.cos(phi)), round(math.sin(phi)))):
            for dx in (-2, -1, 0, 1, 2):
                for dy in (-2, -1, 0, 1, 2):
                    x, y = x0 + dx * math.ulp(x0 or 1e-300), y0 + dy * math.ulp(y0 or 1e-300)
                    for z in (-1.0, -0.5, 0.0, 0.5, 1.0):
                        for dz in (-2, -1, 0, 1, 2):
                            near.append([x, y, z + dz * math.ulp(z or 1e-300)])
    near += [[sx, sy, sz] for sx in (0.0, -0.0) for sy in (0.0, -0.0) for sz in (1.0, -1.0)]
    for rows in np.array_split(np.concatenate([dirs, near]), 10):
        assert direction_bin(rows).tolist() == [direction_bin_scalar(*d) for d in rows.tolist()]
    assert type(direction_bin(near[7])) is int and direction_bin(near[7]) == direction_bin_scalar(*near[7])


def collected_isotropy(*args):
    """``isotropy_experiment`` with a sink that keeps what each call gives it.

    Returns the result and the tracks, as the arrays of their directions,
    chain lengths and flux ratios in the order the calls came, then the
    number of tracks of each call.
    """
    chunks = []

    def sink(chunk):
        directions, chain_lengths, flux_ratios = chunk
        assert type(flux_ratios) is list and directions.shape == (len(chain_lengths), 3)
        assert 0 < len(chain_lengths) == len(flux_ratios)
        chunks.append((directions.copy(), chain_lengths.copy(), np.array(flux_ratios)))

    result = isotropy_experiment(*args, sink)
    tracks = tuple(np.concatenate(column) for column in zip(*chunks))
    return (result, tracks), [len(lengths) for _, lengths, _ in chunks]


def expected_atoms(density):
    """Mean atom count of a gas of SPECIES in the 12-40 shell at ``density``."""
    return chamber._expected_atoms(density, 12.0, 40.0, SPECIES.width)


def isotropy_ranges(*args):
    """The configuration ranges [i0, i1) that ``isotropy_experiment(*args)`` hands ``_range_tracks``, in
    order, taken in one process from a run that samples nothing."""
    spans = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        on_cpus(monkeypatch, 1)
        monkeypatch.setattr(chamber, "_range_tracks", lambda i0, i1, *_: spans.append((i0, i1)) or ())
        with pytest.raises(ValueError, match="no configuration produced a track"):
            isotropy_experiment(*args, lambda *chunk: None)
    return spans


def with_range_configs(monkeypatch, configs, *args):
    """Set _CHUNK_BUDGET so that ``isotropy_experiment(*args)`` runs ranges of ``configs`` configurations,
    the last one holding the rest."""
    monkeypatch.setattr(chamber, "_CHUNK_BUDGET", math.ceil(configs * (1.0 + expected_atoms(args[1]))))
    assert {i1 - i0 for i0, i1 in isotropy_ranges(*args)[:-1]} <= {configs}


def test_isotropy_experiment_uniform_gas():
    (result, (directions, chain_lengths, flux_ratios)), _ = collected_isotropy(
        300, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(8080, 0)
    )
    assert type(result).__slots__ == ("counts", "chi_square", "p_value", "n_empty")
    assert result.counts.sum() + result.n_empty == 300
    assert result.p_value > 0.001
    assert result.p_value == chi2_sf(31, result.chi_square)
    assert ulps_from(result.p_value, chi2_sf_mpmath(31, result.chi_square)) <= 16.0
    assert directions.shape == (result.counts.sum(), 3)
    assert np.all(chain_lengths >= 1)
    assert np.all(flux_ratios <= 1.0)


def octant_factory(seed):
    """Gases whose atoms all lie in the octant x, y, z > 0."""

    def factory(i):
        draw = RngStream(seed, 10_000 + i)
        n = 1 + draw.poisson(8.0)
        directions = np.abs(draw.standard_normal(size=(n, 3)))
        radii = 12.0 + 25.0 * draw.uniform(size=n)
        atoms = SPECIES.records([radii[j] * unit(directions[j]) for j in range(n)])
        return GasConfiguration(
            atoms=atoms, chamber_radius=40.0, inner_radius=12.0, seed=seed, stream_id=i
        )

    return factory


def mixed_factory(seed):
    """Gases of two species, most of whose chains are one atom long, so that
    the longest chains tie and the surviving flux picks among them."""
    heavy = AtomSpecies(width=0.8, g0=0.3, g1=0.7, delta_e=0.02)
    weak = AtomSpecies(width=1.0, g0=0.05, g1=0.05, delta_e=0.01)

    def factory(i):
        a = sample_gas(1e-4, 12.0, 40.0, SPECIES, RngStream(seed, 2 * i + 1))
        b = sample_gas(1e-4, 12.0, 40.0, weak if i % 2 else heavy, RngStream(seed, 2 * i + 2))
        return GasConfiguration(
            atoms=np.concatenate([a.atoms, b.atoms]), chamber_radius=40.0, inner_radius=12.0, seed=seed
        )

    return factory


def segmented_isotropy(gases, ctx):
    """The tracks of ``gases`` from one ``chamber._tracks`` pass over them as
    one segmented gas, as isotropy_experiment selects a chunk, with the
    counts and statistics of ``oracles.isotropy_result``."""
    atoms = np.concatenate([gas.atoms for gas in gases])
    offsets = np.cumsum([0] + [gas.n_atoms for gas in gases])
    widths = {float(gas.atoms["width"].max()) for gas in gases if gas.n_atoms}
    assert len(widths) == 1  # so the run's one cone is the cone select_track gives each gas
    heads, lengths, c2, dirs, _ = chamber._tracks(atoms, offsets, ctx, cone_half_angle(ctx, widths.pop()))
    ratios = [c2_i**n for c2_i, n in zip(c2.tolist(), lengths.tolist())]
    return isotropy_result(dirs[heads], lengths, ratios, len(gases))


def test_isotropy_experiment_octant_gas_fails_uniformity():
    result, _ = segmented_isotropy(list(map(octant_factory(55), range(150))), CTX)
    assert result.p_value < 1e-6
    assert result.p_value == chi2_sf(31, result.chi_square)
    assert ulps_from(result.p_value, chi2_sf_mpmath(31, result.chi_square)) <= 16.0
    octant_bins = {20, 21, 28, 29}  # z > 0 bands, phi in [0, pi/2)
    for b, count in enumerate(result.counts):
        if b not in octant_bins:
            assert count == 0


ISOTROPY_CASES = {
    # n_configs, density, factory.  A range of the README gas (1e-4) holds
    # 151 configurations, so 400 make two whole ranges and a part
    "chunk_remainder": (400, 1e-4, None),
    "mostly_empty": (150, 3e-6, None),
    "atom_capped_chunks": (100, 1.5e-3, None),
    "mixed_species_ties": (120, 0.0, mixed_factory),
    "octant": (100, 0.0, octant_factory),
}


def assert_same_ensemble(got, expected):
    # (result, tracks) pairs: the tracks bit for bit, then the statistics of the result
    (result, tracks), (want, want_tracks) = got, expected
    for name, column, want_column in zip(("directions", "chain_lengths", "flux_ratios"), tracks, want_tracks):
        assert column.tobytes() == want_column.tobytes(), name
    assert result.counts.tobytes() == want.counts.tobytes()
    assert result.n_empty == want.n_empty
    assert (result.chi_square, result.p_value) == (want.chi_square, want.p_value)


@pytest.mark.parametrize("seed", range(1, 7))
@pytest.mark.parametrize("case", sorted(ISOTROPY_CASES))
def test_isotropy_experiment_bit_equal_to_per_config_loop(case, seed):
    n_configs, density, factory = ISOTROPY_CASES[case]
    args = (n_configs, density, 12.0, 40.0, SPECIES, CTX, RngStream(seed, 5))
    if factory:
        # gases of two species, or not isotropic: selected as one chunk is,
        # and checked against the every-atom scan of each gas alone
        gases = list(map(factory(seed), range(n_configs)))
        got = segmented_isotropy(gases, CTX)
        expected = isotropy_per_config(*args, config_factory=gases.__getitem__, select=select_track_scan)
    else:
        (got, calls), expected = collected_isotropy(*args), isotropy_per_config(*args)
    # the per-configuration loop gives the tracks in configuration order
    assert_same_ensemble(got, expected)
    result, (_, chain_lengths, _) = got
    if case == "chunk_remainder":
        assert len(isotropy_ranges(*args)) == 3 and len(calls) == 3
    if case == "mostly_empty":
        assert result.n_empty > n_configs // 3
    if case == "atom_capped_chunks":
        assert chain_lengths.max() > 2


@pytest.mark.parametrize("density", [3e-6, 1e-4, 1.5e-3])
@pytest.mark.parametrize("budget", [1, 10**9])
def test_isotropy_experiment_bit_equal_to_per_config_loop_at_any_chunk_budget(monkeypatch, budget, density):
    # one configuration per range, or the whole run in one range
    args = (150, density, 12.0, 40.0, SPECIES, CTX, RngStream(19, 5))
    expected = isotropy_per_config(*args)
    monkeypatch.setattr(chamber, "_CHUNK_BUDGET", budget)
    sizes = [i1 - i0 for i0, i1 in isotropy_ranges(*args)]
    assert sizes == ([1] * 150 if budget == 1 else [150])
    got, calls = collected_isotropy(*args)
    assert_same_ensemble(got, expected)
    # one call per range with a track: each non-empty configuration, or the whole run
    n_tracks = 150 - expected[0].n_empty
    assert calls == ([1] * n_tracks if budget == 1 else [n_tracks])


@pytest.mark.parametrize("density, size", [(0.0, 4096), (1e-7, 3991), (1e-4, 151), (2e-2, 1)])
def test_isotropy_ranges_follow_the_expected_atom_count(density, size):
    # a range holds max(1, _CHUNK_BUDGET // (1 + expected atoms)) configurations: 4096 empty gases,
    # 3991 of 0.026 atoms, 151 README gases of 26 atoms or one dense gas of 5217; the ranges cover
    # every configuration in order, and the last one holds the rest
    n_configs = 10_007
    assert size == max(1, int(chamber._CHUNK_BUDGET // (1.0 + expected_atoms(density))))
    spans = isotropy_ranges(n_configs, density, 12.0, 40.0, SPECIES, CTX, RngStream(3, 0))
    assert [i0 for i0, _ in spans] == list(range(0, n_configs, size))
    assert [i1 for _, i1 in spans] == [*range(size, n_configs, size), n_configs]


@pytest.mark.parametrize("k", [10.0, 1.94, 1.0])
def test_segmented_tracks_match_each_gas_alone(k):
    # gases of mixed species with tied chains, and empty gases, selected in
    # one pass, against the every-atom scan of each gas alone.  At k = 1.94
    # the z bands are widest, so one sort key orders the fewest bands per
    # gas; at k = 1 the cone is wider than WIDE_CONE_ANGLE
    ctx = ScatteringContext.from_wavenumber(k, 0.01)
    empty = GasConfiguration(atoms=(), chamber_radius=40.0, inner_radius=12.0, seed=0)
    factory = mixed_factory(77)
    gases = [empty, *map(factory, range(30)), empty, empty, collinear_fixture(n_background=5)]
    gases += [sample_gas(3e-3, 12.0, 40.0, SPECIES, RngStream(78, i)) for i in range(3)]
    atoms = np.concatenate([gas.atoms for gas in gases])
    offsets = np.cumsum([0] + [gas.n_atoms for gas in gases])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        theta_c = cone_half_angle(ctx, float(atoms["width"].max()))
        expected = [select_track_scan(gas, ctx) for gas in gases]
    heads, lengths, c2, dirs, grown = chamber._tracks(atoms, offsets, ctx, theta_c)
    found = np.searchsorted(offsets, heads, side="right") - 1
    assert found.tolist() == [j for j, track in enumerate(expected) if track is not None]
    for j, head, n, c2_head in zip(found.tolist(), heads.tolist(), lengths.tolist(), c2.tolist()):
        track = expected[j]
        assert [m - offsets[j] for m in grown.get(head, [head])] == list(track.chain.indices)
        assert (n, c2_head) == (track.chain.n, track.c2_per_step)
        assert dirs[head].tobytes() == track.direction.tobytes()
    assert max(lengths) >= 5


def mirrored(half, rng):
    """``half`` and a copy with the signs of some coordinates flipped, rows
    shuffled: each atom has a twin at a bit-equal radius."""
    signs = np.where(rng.random((len(half), 3)) < 0.5, -1.0, 1.0)
    signs[:, 2] = -1.0  # the twin of an atom on the z axis is not the atom
    rows = np.concatenate([half, half * signs])
    return rows[rng.permutation(len(rows))]


@pytest.mark.parametrize("k", [10.0, 1.0])
def test_chains_visit_atoms_in_lexsort_order_of_gas_and_radius(k):
    # gases of mirrored atoms, whose bit-equal radii go by index, among
    # empty gases; 65530 leading empty gases number the others across 2^16.
    # build_chains gives each gas's chains in visiting order (radius, then
    # index), and _chains over all gases has the same chains, heads in index order
    ctx = ScatteringContext.from_wavenumber(k, 0.01)
    rng = np.random.default_rng(83)
    gases = [np.empty((0, 3)), np.empty((0, 3))]
    for n in (1, 2, 5, 30, 3, 60):
        normals = rng.standard_normal((n, 3))
        half = (12.0 + 28.0 * rng.random((n, 1))) * normals / np.linalg.norm(normals, axis=1)[:, None]
        gases += [mirrored(half, rng), np.empty((0, 3))]
    pos = np.concatenate(gases)
    sizes = [len(g) for g in gases]
    radii = np.sqrt(np.sum(pos * pos, axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        theta_c = cone_half_angle(ctx, SPECIES.width)
    chains = {}  # by head, over all gases
    for start, rows in zip(np.cumsum([0, *sizes]).tolist(), gases):
        gas = GasConfiguration(atoms=SPECIES.records(rows), chamber_radius=40.0, inner_radius=12.0, seed=0)
        built = [[start + i for i in chain.indices] for chain in build_chains(gas, ctx, theta_c)]
        absorbed = {atom - start for chain in built for atom in chain[1:]}
        visiting = np.lexsort((radii[start:start + len(rows)],)).tolist()
        assert [chain[0] - start for chain in built] == [i for i in visiting if i not in absorbed]
        chains.update((chain[0], chain) for chain in built)
    for leading in (0, 65_530):
        offsets = np.cumsum([0, *[0] * leading, *sizes])
        _, heads, lengths, grown = chamber._chains(pos, offsets, theta_c)
        assert heads.tolist() == sorted(chains)
        assert [grown.get(h, [h]) for h in heads.tolist()] == [chains[h] for h in sorted(chains)]
        assert lengths.tolist() == [len(chains[h]) for h in sorted(chains)]
    assert len(np.unique(radii)) == len(radii) // 2
    assert grown and (k == 10.0) == (theta_c <= chamber.WIDE_CONE_ANGLE)


def tie_heavy_gases(seed):
    """Gases whose longest chains tie, with their heads at bit-equal radii:
    mirrored atoms, a mirrored chain of three on the z axis in every other
    gas, the twins of one species, of another or of the same but for
    delta_e (which leaves |C|^2 alone, so the fluxes tie as well)."""
    heavy = AtomSpecies(width=0.8, g0=0.3, g1=0.7, delta_e=0.02)
    shifted = AtomSpecies(width=1.0, g0=0.5, g1=0.5, delta_e=0.03)
    rng = np.random.default_rng(seed)
    gases = [SPECIES.records(np.empty((0, 3)))]
    for i in range(24):
        n = int(rng.integers(1, 8))
        normals = rng.standard_normal((n, 3))
        half = (12.0 + 28.0 * rng.random((n, 1))) * normals / np.linalg.norm(normals, axis=1)[:, None]
        if i % 2:
            half = np.concatenate([half, [[0.0, 0.0, 15.0], [0.0, 0.0, 20.0], [0.0, 0.0, 25.0]]])
        rows = mirrored(half, rng)
        twin = (SPECIES, heavy, shifted)[i % 3]
        species = rng.random(len(rows)) < 0.5
        atoms = SPECIES.records(rows)
        atoms[species] = twin.records(rows[species])
        gases.append(atoms)
        if i % 5 == 0:
            gases.append(SPECIES.records(np.empty((0, 3))))
    return gases


@pytest.mark.parametrize("k", [10.0, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_track_winners_match_one_sort_of_every_head(k, seed):
    # the winners chosen among each gas's tied heads against the winners of
    # one (gas, -length, key, head) sort of all heads
    ctx = ScatteringContext.from_wavenumber(k, 0.01)
    gases = tie_heavy_gases(seed)
    atoms = np.concatenate(gases)
    offsets = np.cumsum([0] + [len(g) for g in gases])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        theta_c = cone_half_angle(ctx, float(atoms["width"].max()))
    _, heads, lengths, _ = chamber._chains(np.ascontiguousarray(atoms["position"]), offsets, theta_c)
    want_heads, want_lengths = track_winners_lexsort(atoms, offsets, ctx, heads, lengths)
    won, best, c2, _, _ = chamber._tracks(atoms, offsets, ctx, theta_c)
    assert won.tolist() == want_heads.tolist()
    assert best.tolist() == want_lengths.tolist()
    assert c2.tobytes() == np.array([normalization_c2(ctx, atoms[h]) for h in won.tolist()]).tobytes()
    fields = ("width", "g0", "g1", "delta_e")
    assert chamber._uniform_species(atoms, offsets).tolist() == [
        all(len(set(atoms[f][a:b].tolist())) <= 1 for f in fields) for a, b in zip(offsets, offsets[1:])
    ]
    # the fixture ties: some gas's winner has a tied twin at its radius that
    # loses on index, and some has a chain of three
    gas = np.searchsorted(offsets, np.arange(len(atoms)), side="right") - 1
    radii = np.sqrt(np.sum(atoms["position"] ** 2, axis=1))
    twins = [
        h for h, n in zip(won.tolist(), best.tolist())
        if any(radii[t] == radii[h] and t > h for t in heads[(gas[heads] == gas[h]) & (lengths == n)].tolist())
    ]
    assert twins and max(best) >= 3


@pytest.mark.parametrize("k", [10.0, 1.94, 1.0])
def test_select_track_matches_scan_reference(k):
    ctx = ScatteringContext.from_wavenumber(k, 0.01)
    gases = [sample_gas(1e-3, 12.0, 40.0, SPECIES, RngStream(79, i)) for i in range(20)]
    gases += [mixed_factory(80)(i) for i in range(40)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        for gas in gases:
            track, expected = select_track(gas, ctx), select_track_scan(gas, ctx)
            assert track.chain.indices == expected.chain.indices
            assert track.direction.tobytes() == expected.direction.tobytes()
            assert (track.c2_per_step, track.surviving_spherical_flux, track.flux_ratio) == (
                expected.c2_per_step, expected.surviving_spherical_flux, expected.flux_ratio
            )


def test_select_track_direction_holds_no_gas_array():
    # the winner's row is copied out of the chains' (n_atoms, 3) directions,
    # so a kept track does not hold 24 bytes per atom of its gas; the bits
    # are those the row view had
    gas = sample_gas(2e-2, 12.0, 40.0, SPECIES, RngStream(3, 0))
    track = select_track(gas, CTX)
    assert gas.n_atoms == 5356 and track.direction.base is None and track.chain.direction is track.direction
    assert track.direction.tobytes().hex() == "82628f61e20cd03f00bf74bf6ffbedbfb382d8e0c427cf3f"


def test_isotropy_experiment_keeps_no_gas_per_track(monkeypatch):
    # a track direction is a row view of its range's (n_atoms, 3) directions;
    # keeping the views would hold 24 bytes per atom of every configuration.
    # Traced in one process from the second range to the end of the run, when
    # the arrays of the last range are still alive
    density = 1e-3
    mean_atoms = density * 4.0 * math.pi / 3.0 * (40.0**3 - 12.0**3)
    range_tracks, held, configs = chamber._range_tracks, [], []

    def ranges(i0, i1, *args):
        if len(configs) == 1:
            tracemalloc.start()
        configs.append(i1 - i0)
        for chunk in range_tracks(i0, i1, *args):
            yield chunk
            held.append(tracemalloc.get_traced_memory()[0])

    on_cpus(monkeypatch, 1)
    monkeypatch.setattr(chamber, "_range_tracks", ranges)
    try:
        isotropy_experiment(600, density, 12.0, 40.0, SPECIES, CTX, RngStream(63, 0), lambda *chunk: None)
    finally:
        tracemalloc.stop()
    assert len(configs) > 30
    assert held[-1] / sum(configs[1:]) < 0.5 * 24 * mean_atoms


def test_isotropy_experiment_memory_does_not_grow_with_the_run():
    # with a sink that keeps nothing, the run holds its bin counts and one
    # range's arrays: the peak of the README gas grows by under 64 KiB from
    # 4*10^3 to 2*10^4 configurations (by 40 bytes per configuration, 629 KiB,
    # while the run kept every track)
    def peak(n_configs):
        tracemalloc.start()
        try:
            isotropy_experiment(n_configs, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(20260810, 0),
                                lambda *chunk: None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the caches a first run fills: numpy keeps about 60 bytes of some calls, up to about 20 KB
    # after some 30 ranges, so the first run is as long as the shorter measured one
    peak(4_000)
    assert peak(20_000) - peak(4_000) < 64 * 1024


def test_isotropy_experiment_requires_enough_configs():
    for n_configs in (0, 99):
        with pytest.raises(ValueError, match="at least 100"):
            isotropy_experiment(n_configs, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(1, 0), lambda *chunk: None)


@pytest.mark.parametrize("range_configs", [1, 7, 150, 10**9])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_isotropy_experiment_does_not_depend_on_cpus_or_ranges(monkeypatch, cpus, range_configs):
    # the README gas at 400 configurations: ranges of one configuration, of 7 and of 150, and one
    # range, run in up to three processes
    args = (400, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(31, 9))
    expected = isotropy_per_config(*args)
    forks = on_cpus(monkeypatch, cpus)
    with_range_configs(monkeypatch, range_configs, *args)
    got, _ = collected_isotropy(*args)
    assert_same_ensemble(got, expected)
    assert len(forks) == min(cpus, math.ceil(400 / range_configs)) - 1
    assert_no_child_left()


@settings(max_examples=20, deadline=None)
@given(n_configs=st.integers(100, 500), range_configs=st.integers(1, 600), cpus=st.integers(2, 3),
       density=st.sampled_from([3e-6, 1e-4]))
@example(n_configs=100, range_configs=99, cpus=3, density=1e-4)  # the last range holds one configuration
def test_isotropy_experiment_bit_equal_to_per_config_loop_at_any_split(n_configs, range_configs, cpus, density):
    args = (n_configs, density, 12.0, 40.0, SPECIES, CTX, RngStream(n_configs, 2))
    with pytest.MonkeyPatch.context() as monkeypatch:
        forks = on_cpus(monkeypatch, cpus)
        with_range_configs(monkeypatch, range_configs, *args)
        got, _ = collected_isotropy(*args)
    assert_same_ensemble(got, isotropy_per_config(*args))
    assert len(forks) == min(cpus, math.ceil(n_configs / range_configs)) - 1
    assert_no_child_left()


def test_isotropy_on_more_processes_than_cpus_finishes_in_time(monkeypatch):
    # a time-bounded stress: 215 ranges of 7 configurations over eight processes (more than a
    # 2- or 4-CPU machine has), bit-equal to one process
    def too_slow(signum, frame):
        raise TimeoutError("isotropy did not finish within 60 s")

    args = (1500, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(77, 3))
    with_range_configs(monkeypatch, 7, *args)
    on_cpus(monkeypatch, 1)
    expected = collected_isotropy(*args)
    forks = on_cpus(monkeypatch, 8)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(60)
    try:
        got = collected_isotropy(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got[1] == expected[1]
    assert_same_ensemble(got[0], expected[0])
    assert len(forks) == 7
    assert_no_child_left()


def worker_ranges_call(monkeypatch, action):
    """Make ``action(i0)`` run where a forked worker starts the range from configuration i0."""
    parent, range_tracks = os.getpid(), chamber._range_tracks

    def in_workers(i0, *args):
        if os.getpid() != parent:
            action(i0)
        return range_tracks(i0, *args)

    monkeypatch.setattr(chamber, "_range_tracks", in_workers)


def test_isotropy_range_message_holds_only_the_tracks():
    # a range of the README gas is one chunk of 151 configurations; a worker's message carries its
    # tracks, about 40 B a configuration, and no bin counts (another 280 B a range), which the caller
    # takes from the directions
    args = (400, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(5, 0))
    (i0, i1), *_ = isotropy_ranges(*args)
    theta_c = cone_half_angle(CTX, SPECIES.width)
    message = list(chamber._range_tracks(i0, i1, expected_atoms(1e-4), *args[2:], theta_c))
    assert len(message) == 1 and len(message[0]) == 3 and len(message[0][1]) > 140
    assert len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)) < 12 * 1024


def test_isotropy_worker_value_error_is_raised_again_in_range_order(monkeypatch):
    # ranges 1 and 2 run in two workers and both fail: range 1's message comes first, after
    # the tracks of range 0, and no worker is left
    def fail(i0):
        raise ValueError(f"no track from configuration {i0}")

    on_cpus(monkeypatch, 3)
    worker_ranges_call(monkeypatch, fail)
    calls = []
    with pytest.raises(ValueError, match="^no track from configuration 151$"):
        isotropy_experiment(2500, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(5, 0), lambda *chunk: calls.append(1))
    assert len(calls) == 1
    assert_no_child_left()


def test_isotropy_worker_that_ends_without_its_tracks_raises_runtime_error(monkeypatch):
    on_cpus(monkeypatch, 2)
    worker_ranges_call(monkeypatch, lambda i0: os._exit(1))
    with pytest.raises(RuntimeError, match="isotropy worker ended without sending its tracks"):
        isotropy_experiment(2500, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(5, 0), lambda *chunk: None)
    assert_no_child_left()


class SinkFailure(Exception):
    pass


@pytest.mark.parametrize("error", [SinkFailure, KeyboardInterrupt])
def test_isotropy_exception_in_the_caller_mid_run_propagates_and_leaves_no_worker(monkeypatch, error):
    # the sink fails while the workers still have ranges to run or to send
    calls = []

    def sink(*chunk):
        calls.append(1)
        if len(calls) == 10:
            raise error("sink failed")

    forks = on_cpus(monkeypatch, 3)
    with pytest.raises(error, match="sink failed"):
        isotropy_experiment(10_000, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(5, 0), sink)
    assert len(forks) == 2 and len(calls) == 10
    assert_no_child_left()


def test_configuration_json_roundtrip(tmp_path):
    gas = sample_gas(2e-4, 12.0, 40.0, SPECIES, RngStream(61, 2))
    path = tmp_path / "gas.json"
    save_configuration(gas, path)
    loaded = load_configuration(path)
    assert loaded.seed == gas.seed and loaded.stream_id == gas.stream_id
    assert np.array_equal(loaded.atoms, gas.atoms)
    first, second = select_track(gas, CTX), select_track(loaded, CTX)
    assert np.array_equal(first.direction, second.direction)
    assert first.surviving_spherical_flux == second.surviving_spherical_flux
    # schema check
    data = json.loads(path.read_text())
    assert set(data) == {"seed", "stream_id", "inner_radius", "chamber_radius", "atoms"}
    assert set(data["atoms"][0]) == {"x", "y", "z", "s", "g0", "g1", "delta_e"}


def test_configuration_dict_roundtrip_without_stream_id():
    gas = sample_gas(2e-4, 12.0, 40.0, SPECIES, RngStream(61, 3))
    data = configuration_to_dict(gas)
    del data["stream_id"]
    loaded = configuration_from_dict(data)
    assert loaded.stream_id == 0
    assert np.array_equal(loaded.atoms, gas.atoms)


def test_configuration_from_dict_names_the_first_bad_value():
    gas = sample_gas(2e-4, 12.0, 40.0, SPECIES, RngStream(61, 4))
    data = configuration_to_dict(gas)
    for key, value in (("g0", math.nan), ("z", -math.inf), ("s", True), ("x", 10**400), ("y", "1")):
        bad = configuration_to_dict(gas)
        bad["atoms"][3][key] = value
        bad["atoms"][5][key] = value
        with pytest.raises(ValueError, match=f"atom 3 '{key}' must be a finite number"):
            configuration_from_dict(bad)
    del data["atoms"][2]["g1"]
    with pytest.raises(ValueError, match="^atom 2 'g1' is missing$"):
        configuration_from_dict(data)
    for key in ("chamber_radius", "inner_radius", "seed"):
        top = configuration_to_dict(gas)
        del top[key]
        with pytest.raises(ValueError, match=f"^'{key}' is missing$"):
            configuration_from_dict(top)
    # ints are numbers, and atoms without delta_e have 0.0
    data = configuration_to_dict(gas)
    data["atoms"][0].update(x=0, y=0, z=20, delta_e=0)
    del data["atoms"][1]["delta_e"]
    loaded = configuration_from_dict(data)
    assert loaded.atoms[0]["position"].tolist() == [0.0, 0.0, 20.0]
    assert loaded.atoms[0]["delta_e"] == loaded.atoms[1]["delta_e"] == 0.0
    assert np.array_equal(loaded.atoms[2:], gas.atoms[2:])


def _loaded(load, path):
    # the gas that load(path) gives, as bits and reprs, or its ValueError message
    try:
        gas = load(path)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return gas.atoms.tobytes(), repr((gas.chamber_radius, gas.inner_radius, gas.seed, gas.stream_id))


# the atoms of a small gas.json, one entry text each, and a whole atom entry's keys
ATOM_TEXTS = (
    '{"x": 0.0, "y": 0.0, "z": 15.0, "s": 1.0, "g0": 0.5, "g1": 0.5, "delta_e": 0.01}',
    '{"x": -0.0, "y": 25.0, "z": 0.0, "s": 1.0, "g0": 0.5, "g1": 0.5, "delta_e": 0.01}',
    '{"x": 20.0, "y": 1e-300, "z": 0.0, "s": 1.0, "g0": 0.5, "g1": 0.5, "delta_e": 0.01}',
)
WHOLE = '"x": 0.0, "y": 0.0, "z": 30.0, "s": 1.0, "g0": 0.5, "g1": 0.5, "delta_e": 0.01'


def _gas_text(entries=None, top="", atoms=None):
    # the small gas.json with ATOM_TEXTS[i] replaced by entries[i], ``top`` spliced in
    # before the first key and the whole atom list replaced by ``atoms`` where given
    texts = [entries.get(i, text) for i, text in enumerate(ATOM_TEXTS)] if entries else ATOM_TEXTS
    atoms = ", ".join(texts) if atoms is None else atoms
    return '{' + top + '"seed": 3, "stream_id": 2, "inner_radius": 12.0, "chamber_radius": 40.0, ' \
        f'"atoms": [{atoms}]}}'


def _atom(i, old, new):
    return {i: ATOM_TEXTS[i].replace(old, new, 1)}


# gas.json texts that the parse hook must pass to the slow path, or read as that path does
UNUSUAL_GAS_TEXTS = {
    "plain": _gas_text(),
    "ints": _gas_text({2: '{"x": 20, "y": 0, "z": -1, "s": 1, "g0": 0, "g1": 2, "delta_e": 0}'}),
    "int_that_rounds": _gas_text(_atom(2, '"g1": 0.5', '"g1": 9007199254740993')),
    "int_rounding_to_the_largest_float": _gas_text(_atom(2, "1e-300", str(int(sys.float_info.max) + 2**960))),
    "int_rounding_to_minus_the_largest_float": _gas_text(
        _atom(0, '"x": 0.0', f'"x": {-int(sys.float_info.max) - 1}')),
    "int_1e400": _gas_text(_atom(1, "25.0", "1" + "0" * 400)),
    "float_1e400": _gas_text(_atom(1, "25.0", "1e400")),
    "largest_float": _gas_text(_atom(1, "25.0", "1.7976931348623157e308")),
    "nan": _gas_text(_atom(1, '"g0": 0.5', '"g0": NaN')),
    "infinity": _gas_text(_atom(2, "0.01", "Infinity")),
    "minus_infinity": _gas_text(_atom(0, "15.0", "-Infinity")),
    "true": _gas_text(_atom(1, '"g0": 0.5', '"g0": true')),
    "false": _gas_text(_atom(2, '"s": 1.0', '"s": false')),
    "true_inside_a_string": _gas_text(_atom(1, "}", ', "note": "true or false"}')),
    "true_as_a_key": _gas_text(top='"true": 1, '),
    "null": _gas_text(_atom(1, '"y": 25.0', '"y": null')),
    "string": _gas_text(_atom(1, '"y": 25.0', '"y": "25.0"')),
    "list": _gas_text(_atom(2, '"z": 0.0', '"z": [0.0]')),
    "object": _gas_text(_atom(2, '"z": 0.0', '"z": {}')),
    "no_delta_e": _gas_text(_atom(1, ', "delta_e": 0.01', "")),
    "no_y": _gas_text(_atom(0, '"y": 0.0, ', "")),
    "extra_keys": _gas_text(_atom(0, "{", '{"colour": "red", "n": [1, {"x": 1}], ')),
    "atom_nested_in_an_atom": _gas_text(_atom(1, "}", ', "inner": {' + WHOLE + "}}")),
    "atom_as_a_value": _gas_text(_atom(1, '"x": -0.0', '"x": {' + WHOLE + "}")),
    "atom_outside_atoms": _gas_text(top='"extra": {' + WHOLE + "}, "),
    "duplicate_keys": _gas_text(_atom(1, '"x": -0.0', '"x": 1e9, "x": -0.0')),
    "duplicate_keys_last_bad": _gas_text(_atom(1, '"x": -0.0', '"x": -0.0, "x": "a"')),
    "top_level_with_atom_keys": _gas_text(top=WHOLE + ", ", atoms=""),
    "empty_atoms": _gas_text(atoms=""),
    "atom_not_an_object": _gas_text({2: "[20.0, 0.0, 0.0]"}),
    "atoms_an_object": _gas_text().replace('"atoms": [', '"atoms": {"a": [').replace("]}", "]}}"),
    "no_atoms": _gas_text().replace('"atoms"', '"atom"'),
    "top_level_list": "[" + _gas_text() + "]",
    "top_level_atom": "{" + WHOLE + "}",
    "seed_a_float": _gas_text().replace('"seed": 3', '"seed": 3.0'),
    "seed_true": _gas_text().replace('"seed": 3', '"seed": true'),
    "radius_an_int": _gas_text().replace('"chamber_radius": 40.0', '"chamber_radius": 40'),
    "no_stream_id": _gas_text().replace('"stream_id": 2, ', ""),
    "atom_outside_the_shell": _gas_text(_atom(2, "20.0", "41.0")),
    "negative_coupling": _gas_text(_atom(2, '"g1": 0.5', '"g1": -0.5')),
}
# the texts that load_configuration reads without the slow path
FAST_GAS_TEXTS = ("plain", "ints", "int_that_rounds", "extra_keys", "duplicate_keys", "empty_atoms",
                  "seed_a_float", "radius_an_int", "no_stream_id", "atom_outside_the_shell",
                  "negative_coupling")


@pytest.mark.parametrize("name", UNUSUAL_GAS_TEXTS)
def test_load_configuration_reads_what_configuration_from_dict_reads(tmp_path, name):
    # the same bits, or the same message, as the value-by-value path, and the fast path where expected
    path = tmp_path / "gas.json"
    path.write_text(UNUSUAL_GAS_TEXTS[name], encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        slow = _loaded(lambda _: configuration_from_dict(json.load(fh)), path)
    assert _loaded(load_configuration, path) == slow
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chamber, "configuration_from_dict", None)  # the slow path raises TypeError
        try:
            fast = _loaded(load_configuration, path) == slow
        except TypeError:
            fast = False
    assert fast == (name in FAST_GAS_TEXTS)


def test_unusual_gas_texts_read_as_their_names_say(tmp_path):
    results = {}
    for name, text in UNUSUAL_GAS_TEXTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        results[name] = _loaded(load_configuration, path)
    plain = results["plain"]
    for name in ("true_inside_a_string", "true_as_a_key", "extra_keys", "atom_nested_in_an_atom",
                 "atom_outside_atoms", "duplicate_keys"):
        assert results[name] == plain, name
    assert results["no_stream_id"][0] == plain[0] and results["no_stream_id"][1].endswith(", 0)")
    atoms = {name: np.frombuffer(results[name][0], ATOM_DTYPE) for name in ("plain", "ints", "no_delta_e")}
    assert atoms["ints"]["position"][2].tolist() == [20.0, 0.0, -1.0]
    assert [float(atoms["ints"][f][2]) for f in ("width", "g0", "g1", "delta_e")] == [1.0, 0.0, 2.0, 0.0]
    assert atoms["no_delta_e"]["delta_e"].tolist() == [0.01, 0.0, 0.01]
    assert np.signbit(atoms["plain"]["position"][1, 0]) and atoms["plain"]["position"][2, 1] == 1e-300
    assert np.frombuffer(results["int_that_rounds"][0], ATOM_DTYPE)["g1"][2] == 2.0**53
    assert results["top_level_with_atom_keys"][0] == results["empty_atoms"][0] == b""
    assert results["nan"] == "ValueError: atom 1 'g0' must be a finite number, got nan"
    assert results["true"] == "ValueError: atom 1 'g0' must be a finite number, got True"
    assert results["no_y"] == "ValueError: atom 0 'y' is missing"
    assert results["int_rounding_to_the_largest_float"].startswith("ValueError: atom 2 'y' must be a finite")
    assert results["int_rounding_to_minus_the_largest_float"].startswith(
        "ValueError: atom 0 'x' must be a finite")
    assert results["int_1e400"].startswith("ValueError: atom 1 'y' must be a finite number, got 1000")
    assert results["atom_as_a_value"].startswith("ValueError: atom 1 'x' must be a finite number, got {")
    assert results["largest_float"].startswith("ValueError: atom 1: position must have a finite norm")


def test_load_configuration_holds_no_python_object_per_atom(tmp_path, monkeypatch):
    # 2*10^4 atoms.  Reading the file holds its bytes and its text at once,
    # as any read of a text file does; from the parse on, the text, 56 bytes
    # of values and a list slot per atom, within 1 MiB.  A dict and seven
    # floats per atom, as json.load builds them, took about 650 bytes per atom
    gas = sample_gas(2e4 / (4.0 * math.pi / 3.0 * (40.0**3 - 12.0**3)), 12.0, 40.0, SPECIES, RngStream(83, 0))
    n_atoms = gas.n_atoms
    assert abs(n_atoms - 20_000) < 1000
    path = tmp_path / "gas.json"
    save_configuration(gas, path)
    text_bytes = path.stat().st_size
    loads, read_peaks = json.loads, []

    def traced_loads(*args, **kwargs):
        read_peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", traced_loads)
    tracemalloc.start()
    try:
        loaded = load_configuration(path)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.atoms.tobytes() == gas.atoms.tobytes()
    assert len(read_peaks) == 1  # one parse: the fast path
    assert read_peaks[0] < 2 * text_bytes + 2**16
    assert parse_peak < text_bytes + 64 * n_atoms + 2**20


def test_gas_configuration_invariants():
    with pytest.raises(ValueError, match="shell"):
        GasConfiguration(
            atoms=SPECIES.records([[0.0, 0.0, 50.0]]),
            chamber_radius=40.0,
            inner_radius=12.0,
            seed=0,
        )
    with pytest.raises(ValueError, match="10"):
        GasConfiguration(
            atoms=SPECIES.records([[0.0, 0.0, 11.0]]),
            chamber_radius=40.0,
            inner_radius=5.0,
            seed=0,
        )


THREADS_SCRIPT = """
import hashlib
import numpy as np
from mottbox import chamber
from mottbox.mott import ScatteringContext
from mottbox.numerics import RngStream
ctx = ScatteringContext.from_wavenumber(10.0, 0.01)
species = chamber.AtomSpecies(width=1.0, g0=0.5, g1=0.5, delta_e=0.01)
theta_c = chamber.cone_half_angle(ctx, species.width)
digest = hashlib.sha256()
gas = chamber.sample_gas(1.92e-2, 12.0, 40.0, species, RngStream(7, 0))
chains = chamber.build_chains(gas, ctx, theta_c)
for chain in chains:
    digest.update(np.array(chain.indices).tobytes() + chain.direction.tobytes())
mean_atoms = chamber._expected_atoms(1e-4, 12.0, 40.0, species.width)
(directions, lengths, ratios), = chamber._range_tracks(
    0, 100, mean_atoms, 12.0, 40.0, species, ctx, RngStream(7, 0), theta_c)
for part in (directions, lengths, np.array(ratios)):
    digest.update(part.tobytes())
print(gas.n_atoms, max(chain.n for chain in chains), len(lengths), digest.hexdigest())
"""


def test_thread_count_never_changes_chains_or_tracks():
    # the determinism contract's third part: a 5 * 10^3-atom README gas and
    # one isotropy range give the same bytes on one and on two BLAS threads
    src = str(Path(mottbox.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", THREADS_SCRIPT],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.split())
    n_atoms, longest, n_tracks, _ = outputs[0]
    assert 4500 < int(n_atoms) < 5500 and int(longest) > 2 and int(n_tracks) > 50
    assert outputs[0] == outputs[1]
