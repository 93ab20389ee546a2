import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mottbox
from mottbox import chamber
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
from oracles import (
    build_chains_scan,
    chi2_sf_mpmath,
    cone_candidates_scan,
    configuration_to_dict,
    direction_bin_scalar,
    isotropy_per_config,
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
    members, start, end = chamber._cone_candidates(pos, radii, pos / radii[:, None], gas, cos_m)
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
    # steps of several lengths at the candidate cone's edge angle and 1e-9
    # rad either side of it: the lists keep exactly the pairs that the step
    # test at the head keeps, however the rounding falls
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
            for angle in (edge - 1e-9, edge, edge + 1e-9):
                for length in (0.01, 0.7, 6.0):
                    pos.append(head + length * (math.cos(angle) * axis + math.sin(angle) * across))
    pos = np.concatenate([heads, pos])
    lists = assert_candidates_match_scan(pos, [0, len(pos)], theta_c)
    per_head = np.arange(len(heads) * 45).reshape(len(heads), 5, 3, 3) + len(heads)
    listed = [np.isin(per_head[h], lists[h]) for h in range(len(heads))]
    assert all(inside[:, 0].all() and not inside[:, 2].any() for inside in listed)


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


def segmented_chains(gases, theta_c):
    # the chains of each gas from one _chains call over all gases, as tuples
    # of indices into that gas, gas by gas in visiting order
    offsets = np.cumsum([0] + [gas.n_atoms for gas in gases])
    pos = np.concatenate([gas.atoms["position"] for gas in gases])
    _, heads, lengths, grown = chamber._chains(pos, offsets, theta_c)
    gas = np.searchsorted(offsets, heads, side="right") - 1
    chains = [[] for _ in gases]
    for g, head in zip(gas.tolist(), heads.tolist()):
        chains[g].append(tuple(m - offsets[g] for m in grown.get(head, [head])))
    assert lengths.tolist() == [len(c) for per_gas in chains for c in per_gas]
    return chains


def test_segmented_chains_on_cone_edges_grow_in_one_batch(monkeypatch):
    # every head of the 300 cone-edge gases grows in one batch, so the edge
    # steps of many chains share each array step and its recomputed rows
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
    # included), against the default batches: a dense README gas, an
    # isotropy chunk of 64 gases and a gas at k s = 1.9, which lists every atom
    wide = ScatteringContext.from_wavenumber(1.9, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        wide_cone = cone_half_angle(wide, SPECIES.width)
    theta_c = cone_half_angle(CTX, SPECIES.width)
    atoms, offsets = next(chamber._sampled_chunks(200, 3e-4, 12.0, 40.0, SPECIES, RngStream(4250, 0)))
    chunk = [GasConfiguration(atoms[lo:hi], 40.0, 12.0, 0) for lo, hi in zip(offsets, offsets[1:])]
    cases = [
        ([sample_gas(2e-2, 12.0, 40.0, SPECIES, RngStream(4250, 1))], theta_c),
        (chunk, theta_c),
        ([sample_gas(2e-3, 12.0, 40.0, SPECIES, RngStream(4250, 2))], wide_cone),
    ]
    expected = [segmented_chains(*case) for case in cases]
    monkeypatch.setattr(chamber, "CANDIDATE_PAIRS", pairs)
    for case, chains in zip(cases, expected):
        assert segmented_chains(*case) == chains
    assert len(chunk) == chamber._CHUNK_CONFIGS and cases[0][0][0].n_atoms > 5000
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
        sample_gas(3.5e-2, 12.0, 40.0, SPECIES, RngStream(62, 4)),  # over four writes of 2048 atoms
        GasConfiguration(atoms=(), chamber_radius=40, inner_radius=12, seed=2**64 - 1, stream_id=3),
        GasConfiguration(atoms=mixed, chamber_radius=40.0, inner_radius=12.0, seed=62),
        GasConfiguration(atoms=mixed[:1], chamber_radius=40.0, inner_radius=12.0, seed=62),
        GasConfiguration(atoms=signed_zeros, chamber_radius=40.0, inner_radius=12.0, seed=62),
    ):
        path = tmp_path / "gas.json"
        save_configuration(gas, path)
        assert path.read_text(encoding="utf-8") == json.dumps(configuration_to_dict(gas), indent=1) + "\n"


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


def test_isotropy_experiment_uniform_gas():
    result = isotropy_experiment(
        n_configs=300,
        density=1e-4,
        inner_radius=12.0,
        chamber_radius=40.0,
        species=SPECIES,
        ctx=CTX,
        rng=RngStream(8080, 0),
    )
    assert result.counts.sum() + result.n_empty == 300
    assert result.p_value > 0.001
    assert result.p_value == chi2_sf(31, result.chi_square)
    assert ulps_from(result.p_value, chi2_sf_mpmath(31, result.chi_square)) <= 16.0
    assert result.directions.shape[1] == 3
    assert np.all(result.chain_lengths >= 1)
    assert np.all(result.flux_ratios <= 1.0)


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


def test_isotropy_experiment_octant_gas_fails_uniformity():
    result = isotropy_experiment(
        n_configs=150,
        density=0.0,
        inner_radius=12.0,
        chamber_radius=40.0,
        species=SPECIES,
        ctx=CTX,
        rng=RngStream(55, 0),
        config_factory=octant_factory(55),
    )
    assert result.p_value < 1e-6
    assert result.p_value == chi2_sf(31, result.chi_square)
    assert ulps_from(result.p_value, chi2_sf_mpmath(31, result.chi_square)) <= 16.0
    octant_bins = {20, 21, 28, 29}  # z > 0 bands, phi in [0, pi/2)
    for b, count in enumerate(result.counts):
        if b not in octant_bins:
            assert count == 0


ISOTROPY_CASES = {
    # n_configs, density, factory
    "chunk_remainder": (2 * chamber._CHUNK_CONFIGS + 37, 1e-4, None),
    "mostly_empty": (150, 3e-6, None),
    "atom_capped_chunks": (100, 1.5e-3, None),
    "mixed_species_ties": (120, 0.0, mixed_factory),
    "octant": (100, 0.0, octant_factory),
}


@pytest.mark.parametrize("seed", range(1, 7))
@pytest.mark.parametrize("case", sorted(ISOTROPY_CASES))
def test_isotropy_experiment_bit_equal_to_per_config_loop(case, seed):
    n_configs, density, factory = ISOTROPY_CASES[case]
    args = (n_configs, density, 12.0, 40.0, SPECIES, CTX, RngStream(seed, 5))
    # isotropy_experiment selects a factory's gases one at a time, through
    # the code select_track runs, so those are checked against the scan
    select = select_track_scan if factory else select_track
    factory = factory and factory(seed)
    result = isotropy_experiment(*args, config_factory=factory)
    expected = isotropy_per_config(*args, config_factory=factory, select=select)
    for field in ("directions", "chain_lengths", "flux_ratios", "counts"):
        assert getattr(result, field).tobytes() == getattr(expected, field).tobytes(), field
    assert result.n_empty == expected.n_empty
    assert (result.chi_square, result.p_value) == (expected.chi_square, expected.p_value)
    if case == "mostly_empty":
        assert result.n_empty > n_configs // 3
    if case == "atom_capped_chunks":
        assert result.chain_lengths.max() > 2


def test_isotropy_chunks_close_on_configs_and_on_atoms():
    def chunk_sizes(density):
        chunks = chamber._sampled_chunks(300, density, 12.0, 40.0, SPECIES, RngStream(3, 0))
        return [(len(offsets) - 1, int(offsets[-1])) for _, offsets in chunks]

    full, rest = divmod(300, chamber._CHUNK_CONFIGS)
    assert [n for n, _ in chunk_sizes(1e-4)] == [chamber._CHUNK_CONFIGS] * full + [rest] * (rest > 0)
    dense = chunk_sizes(1.5e-3)
    assert sum(n for n, _ in dense) == 300
    assert all(n < chamber._CHUNK_CONFIGS and atoms >= chamber._CHUNK_ATOMS for n, atoms in dense[:-1])


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
    # empty gases; 65530 leading empty gases number the others across 2^16
    ctx = ScatteringContext.from_wavenumber(k, 0.01)
    rng = np.random.default_rng(83)
    gases = [np.empty((0, 3)), np.empty((0, 3))]
    for n in (1, 2, 5, 30, 3, 60):
        normals = rng.standard_normal((n, 3))
        half = (12.0 + 28.0 * rng.random((n, 1))) * normals / np.linalg.norm(normals, axis=1)[:, None]
        gases += [mirrored(half, rng), np.empty((0, 3))]
    pos = np.concatenate(gases)
    sizes = [len(g) for g in gases]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the wide-cone warning
        theta_c = cone_half_angle(ctx, SPECIES.width)
    for leading in (0, 65_530):
        offsets = np.cumsum([0, *[0] * leading, *sizes])
        _, heads, _, grown = chamber._chains(pos, offsets, theta_c)
        radii = np.sqrt(np.sum(pos * pos, axis=1))
        gas = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        absorbed = {atom for chain in grown.values() for atom in chain[1:]}
        assert heads.tolist() == [i for i in np.lexsort((radii, gas)).tolist() if i not in absorbed]
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


def test_isotropy_experiment_keeps_no_gas_per_track():
    # a track direction is a row view of its gas's (n_atoms, 3) directions;
    # keeping the views would hold 24 bytes per atom of every configuration
    density = 1e-3
    mean_atoms = density * 4.0 * math.pi / 3.0 * (40.0**3 - 12.0**3)
    held = []

    def factory(i):
        if i == 50:
            tracemalloc.start()
        elif i == 99:
            held.append(tracemalloc.get_traced_memory()[0])
        return sample_gas(density, 12.0, 40.0, SPECIES, RngStream(63, 1 + i))

    try:
        isotropy_experiment(100, 0.0, 12.0, 40.0, SPECIES, CTX, RngStream(63, 0), config_factory=factory)
    finally:
        tracemalloc.stop()
    assert held[0] / 49 < 0.5 * 24 * mean_atoms


def test_isotropy_experiment_requires_enough_configs():
    with pytest.raises(ValueError):
        isotropy_experiment(0, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(1, 0))
    with pytest.raises(ValueError):
        isotropy_experiment(99, 1e-4, 12.0, 40.0, SPECIES, CTX, RngStream(1, 0))


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
atoms, offsets = next(chamber._sampled_chunks(100, 1e-4, 12.0, 40.0, species, RngStream(7, 0)))
heads, lengths, c2, dirs, grown = chamber._tracks(atoms, offsets, ctx, theta_c)
for part in (heads, lengths, c2, dirs[heads]):
    digest.update(part.tobytes())
print(gas.n_atoms, max(chain.n for chain in chains), len(heads), digest.hexdigest())
"""


def test_thread_count_never_changes_chains_or_tracks():
    # the determinism contract's third part: a 5 * 10^3-atom README gas and
    # one isotropy chunk give the same bytes on one and on two BLAS threads
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
