import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from plant_oracles import dcm_inertial_to_body, kinetic_energy
from rigid_body_oracles import staged_rk4_step
from scipy.integrate import solve_ivp
from settings_cases import SETTINGS

from pacsim.plants.rigid_body import (
    GRAVITY,
    InertiaSet,
    _wrap_angle,
    rigid_body_step,
)


def test_equilibrium_is_fixed_point():
    inertia = InertiaSet()
    state = [0.0] * 12
    for _ in range(100):
        state = rigid_body_step(state, inertia, np.zeros(3), np.zeros(3), 0.01)
    np.testing.assert_allclose(state, np.zeros(12), atol=1e-15)


def test_pure_roll_moment_decouples_without_ixz():
    inertia = InertiaSet(i_xz=0.0)
    state = [0.0] * 12
    dt = 1e-3
    L = 0.02
    state = rigid_body_step(state, inertia, np.zeros(3), np.array([L, 0.0, 0.0]), dt)
    # with q = r = 0 the roll acceleration is exactly L / I_x
    p, q, r = state[9:12]
    assert p == pytest.approx(L / inertia.i_x * dt, rel=1e-12)
    assert q == 0.0
    assert r == 0.0


def test_matches_adaptive_reference_integrator():
    # same piecewise-constant force/moment profile fed to solve_ivp at tight
    # tolerance; checks the fixed-step RK4 integration error
    rng = np.random.default_rng(13)
    inertia = InertiaSet(i_xz=0.005)
    dt = 0.01
    n = 1000  # 10 s
    forces = rng.uniform(-1.0, 1.0, size=(n, 3))
    moments = rng.uniform(-0.01, 0.01, size=(n, 3))

    state = [0.0] * 12
    for i in range(n):
        state = rigid_body_step(state, inertia, forces[i], moments[i], dt)

    def deriv(_t, x, f, m):
        u, v, w = x[3:6]
        phi, theta, psi = x[6:9]
        p, q, r = x[9:12]
        du = f[0] / inertia.m - q * w + r * v
        dv = f[1] / inertia.m - r * u + p * w
        dw = f[2] / inertia.m - p * v + q * u
        dq = (m[1] - r * p * (inertia.i_x - inertia.i_z) - inertia.i_xz * (p * p - r * r)) / inertia.i_y
        det = inertia.i_x * inertia.i_z - inertia.i_xz**2
        rhs_l = m[0] - q * r * (inertia.i_z - inertia.i_y) + inertia.i_xz * p * q
        rhs_n = m[2] - p * q * (inertia.i_y - inertia.i_x) - inertia.i_xz * q * r
        dp = (inertia.i_z * rhs_l + inertia.i_xz * rhs_n) / det
        dr = (inertia.i_xz * rhs_l + inertia.i_x * rhs_n) / det
        dphi = p + (q * math.sin(phi) + r * math.cos(phi)) * math.tan(theta)
        dtheta = q * math.cos(phi) - r * math.sin(phi)
        dpsi = (q * math.sin(phi) + r * math.cos(phi)) / math.cos(theta)
        dpos = dcm_inertial_to_body(phi, theta, psi).T @ x[3:6]
        return np.concatenate([dpos, [du, dv, dw, dphi, dtheta, dpsi, dp, dq, dr]])

    x = np.zeros(12)
    for i in range(n):
        sol = solve_ivp(deriv, (0.0, dt), x, args=(forces[i], moments[i]), rtol=1e-11, atol=1e-12)
        x = sol.y[:, -1]

    got = np.array(state)
    scale = max(1.0, float(np.abs(x).max()))
    assert np.abs(got - x).max() / scale < 1e-5


def test_torque_free_energy_conservation():
    rng = np.random.default_rng(29)
    inertia = InertiaSet(i_xz=0.004)
    velocity, rates = rng.uniform(-2, 2, size=3).tolist(), rng.uniform(-1, 1, size=3).tolist()
    state = [0.0, 0.0, 0.0, *velocity, 0.0, 0.0, 0.0, *rates]
    e0 = kinetic_energy(state, inertia)
    for _ in range(1000):  # 10 s at dt = 0.01
        state = rigid_body_step(state, inertia, np.zeros(3), np.zeros(3), 0.01)
    e1 = kinetic_energy(state, inertia)
    assert abs(e1 - e0) / e0 < 1e-6


def test_dcm_orthonormal():
    rng = np.random.default_rng(37)
    for _ in range(200):
        phi, psi = rng.uniform(-math.pi, math.pi, size=2)
        theta = rng.uniform(-1.4, 1.4)
        R = dcm_inertial_to_body(phi, theta, psi)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_attitude_wraps_to_pi_interval():
    inertia = InertiaSet()
    state = [0.0] * 11 + [2.0]  # yaw rate r
    for _ in range(400):  # yaw winds through several turns
        state = rigid_body_step(state, inertia, np.zeros(3), np.zeros(3), 0.01)
        assert -math.pi < state[8] <= math.pi


def test_wrap_leaves_in_range_angles_unchanged():
    # the shift by pi and back used to round them: 0.1 came back as 0.10000000000000009
    rng = np.random.default_rng(13)
    for a in [0.1, 1e-5, -1e-5, 5e-324, 0.0, math.pi, -3.14159, *rng.uniform(-math.pi, math.pi, 1000)]:
        assert _wrap_angle(a) == a
    # out of range, the shift, fmod and shift back still apply
    for a in [-math.pi, 4.0, -4.0, 7.0, -50.0, *rng.uniform(math.pi, 30.0, 1000), *rng.uniform(-30.0, -math.pi, 1000)]:
        shifted = math.fmod(a + math.pi, 2.0 * math.pi)
        want = (shifted + 2.0 * math.pi if shifted <= 0.0 else shifted) - math.pi
        assert _wrap_angle(a) == want
        assert -math.pi < want <= math.pi


def test_singular_inertia_rejected():
    with pytest.raises(ValueError):
        InertiaSet(i_x=0.04, i_z=0.04, i_xz=0.04)
    # i_x i_z - i_xz^2 = -0.0076: not singular, but not positive definite either
    with pytest.raises(ValueError, match="positive definite"):
        InertiaSet(i_xz=0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["m", "i_x", "i_y", "i_z", "i_xz"])
def test_non_finite_inertia_rejected(name, value):
    with pytest.raises(ValueError, match=f"^inertia {name} must be finite and a real number, not "):
        InertiaSet(**{name: value})


@pytest.mark.parametrize("name", ["m", "i_x", "i_y", "i_z"])
@pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
def test_non_positive_mass_or_principal_inertia_rejected(name, value):
    with pytest.raises(ValueError, match="must be positive"):
        InertiaSet(**{name: value})


@pytest.mark.parametrize("cls", SETTINGS, ids=lambda cls: cls.__name__)
def test_inertia_set_is_frozen(cls):
    # every settings class checks its values once, at construction: an assignment after it would skip the checks
    settings = cls(**SETTINGS[cls])
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(settings, field.name, True)
    assert settings == cls(**SETTINGS[cls])


@pytest.mark.parametrize("changes", [{"m": 2.0}, {"i_x": 0.05}, {"i_z": 0.07}, {"i_xz": -0.003}, {"i_y": 0.02, "m": 0.5}])
def test_replaced_inertia_steps_like_a_fresh_one(changes):
    # rigid_body_step reads the terms cached at construction; replace() must compute them anew
    base = InertiaSet(i_xz=0.004)
    replaced = dataclasses.replace(base, **changes)
    fresh = InertiaSet(**{**dataclasses.asdict(base), **changes})
    assert replaced.terms == fresh.terms != base.terms
    rng = np.random.default_rng(71)
    x = rng.uniform(-1.0, 1.0, size=12).tolist()
    forces, moments = rng.uniform(-5.0, 5.0, size=3).tolist(), rng.uniform(-0.1, 0.1, size=3).tolist()
    got = rigid_body_step(list(x), replaced, forces, moments, 0.01)
    want = rigid_body_step(list(x), fresh, forces, moments, 0.01)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got != rigid_body_step(list(x), base, forces, moments, 0.01)


def test_divergence_aborts():
    inertia = InertiaSet()
    state = [0.0] * 12
    with pytest.raises(FloatingPointError):
        for _ in range(20):
            state = rigid_body_step(state, inertia, np.array([1e308, 0, 0]), np.zeros(3), 1.0)


def test_overflowed_stage_angle_raises_floating_point_error():
    # finite inputs whose RK4 stage angles overflow: math.cos of an infinite
    # angle must surface as FloatingPointError (caught by run_experiment),
    # not as ValueError, and name the non-finite components
    inertia = InertiaSet(i_xz=0.01)
    state = [0.0, 0.0, 0.0, 1e160, 1e160, 1e160, 0.0, 0.0, 0.0, 1e160, 0.0, 0.0]
    with pytest.raises(FloatingPointError, match=r"non-finite .*\bphi\b"):
        rigid_body_step(state, inertia, np.zeros(3), np.full(3, 1e160), 0.01)


# One RK4 step per case, recorded bit for bit: (inertia, state x y z u v w phi
# theta psi p q r, forces, moments, dt, new state as float.hex). The cases
# cover a nonzero I_xz of either sign, angles that wrap across +-pi and
# large body rates.
PINNED_STEPS = [
    (
        dict(i_xz=0.004),
        [0.5, -1.25, -3.0, 0.8, -0.3, 0.15, 0.1, -0.05, 0.7, 0.2, -0.1, 0.3],
        [0.3, -0.2, -29.0],
        [0.01, -0.02, 0.005],
        0.01,
        (
            "0x1.0422d15846536p-1", "-0x1.3f4acf932ad22p+0", "-0x1.7fdb98594ba18p+1",
            "0x1.99b38475a3173p-1", "-0x1.3622b9a3c2fc9p-2", "0x1.b32c0d32aab20p-5",
            "0x1.a13fa09572e9cp-4", "-0x1.a46b996a4dbeap-5", "0x1.67e142f20037dp-1",
            "0x1.9f347576ccffap-3", "-0x1.aca3076383ef2p-4", "0x1.3442db24dde7fp-2",
        ),
    ),
    (
        dict(i_xz=0.01),
        [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 3.14, 0.2, -0.4, 2.0, 0.5, -0.3],
        [0.0, 0.0, -29.43],
        [0.05, 0.0, 0.0],
        0.01,
        (
            "0x1.714e9b85cc8e5p-14", "-0x1.4f0357d207226p-15", "-0x1.ffc0f8a5fafccp-1",
            "0x1.fb8e4313c4487p-13", "-0x1.0280b78a17a3fp-10", "-0x1.91c9f653e8bd9p-4",
            "-0x1.8fae8ae6b7ec2p+1", "0x1.8f704bfa149fep-3", "-0x1.96871464e8217p-2",
            "0x1.021b6dbf67406p+1", "0x1.f2d5937bfb4a6p-2", "-0x1.3023967d180d8p-2",
        ),
    ),
    (
        dict(i_xz=-0.006),
        [2.0, 1.0, -5.0, -1.0, 0.5, 0.0, -0.3, 0.1, -3.14, 0.0, 0.2, -1.5],
        [1.0, 0.0, -30.0],
        [0.0, 0.0, -0.02],
        0.01,
        (
            "0x1.014c25d97aceep+1", "0x1.fda3675986ac1p-1", "-0x1.400f8b7d291e6p+2",
            "-0x1.0103af53bddc5p+0", "0x1.f096afc7e2ca6p-2", "-0x1.a1c27dfdc873ap-4",
            "-0x1.34b437636b442p-2", "0x1.8f2278a77cdb8p-4", "0x1.90683144d3baap+1",
            "0x1.0e9a640622e56p-9", "0x1.92a785f68fa4dp-3", "-0x1.80fb80b343bd7p+0",
        ),
    ),
    (
        dict(i_xz=0.015),
        [0.0, 0.0, 0.0, 3.0, -2.0, 1.0, 0.6, -0.4, 1.2, 40.0, -35.0, 50.0],
        [5.0, -4.0, -20.0],
        [0.3, -0.2, 0.4],
        0.005,
        (
            "0x1.fcd00ec638565p-7", "0x1.367317579d73ap-7", "0x1.1f57ffdfce9cfp-8",
            "0x1.49ed6048f5ce2p+1", "-0x1.435b40cf26fccp+1", "0x1.fc7c538ff8d87p-1",
            "0x1.7d5b937ebeb12p-1", "-0x1.5e1a385ee9526p-1", "0x1.51f623749cb88p+0",
            "0x1.5550b80dd874cp+5", "-0x1.bf66d43f27e73p+4", "0x1.a5cae9cae2534p+5",
        ),
    ),
    (
        dict(m=0.06, i_x=0.0006, i_y=0.0006, i_z=0.001, i_xz=0.0001),
        [0.1, 0.0, -2.0, 1.7, 0.0, -0.2, 0.05, -3.1, 2.9, -0.3, -6.0, 0.8],
        [0.0, 0.02, -0.59],
        [0.0001, -0.0002, 0.0],
        0.01,
        (
            "0x1.dca41173601f0p-4", "-0x1.11ce372f53b9bp-8", "-0x1.ff2ec2bdb68c7p+0",
            "0x1.ae947c2d646b7p+0", "-0x1.354a6edb142b6p-7", "-0x1.997f06c73e256p-2",
            "0x1.830da855b3eaap-5", "0x1.8fb9687f59a58p+1", "0x1.728b7f5213277p+1",
            "-0x1.0c2f92ad972eap-2", "-0x1.803fc92761f3fp+2", "0x1.9e05ba3df84a6p-1",
        ),
    ),
    (
        dict(i_xz=0.02),
        [0.0, 0.0, 0.0, 0.5, -0.5, 0.2, -3.1, 1.3, 3.1, -60.0, 80.0, 120.0],
        [0.0, 0.0, 0.0],
        [1.0, -1.0, 2.0],
        0.02,
        (
            "0x1.0a522032bf14ap-6", "0x1.14fc68590ab09p-7", "0x1.dec3a4deb9423p-7",
            "0x1.b5a783eb5cb9fp+0", "0x1.ba087d33f6035p+1", "-0x1.7f7df566ef1d5p+1",
            "0x1.353d765ba0730p-1", "-0x1.a28e04f462732p-1", "0x1.7a1c2a6cb7460p-2",
            "-0x1.0afcd36e766c4p+3", "-0x1.1c24ed4796abcp+6", "0x1.d6087c7102fa2p+7",
        ),
    ),
]


PINNED_IDS = [
    "hexa_ixz",
    "roll_wraps_past_pi",
    "yaw_wraps_past_minus_pi",
    "large_rates",
    "flapping_pitch_wraps",
    "all_angles_wrap",
]


@pytest.mark.parametrize("inertia, x, forces, moments, dt, want", PINNED_STEPS, ids=PINNED_IDS)
def test_step_is_pinned_bit_for_bit(inertia, x, forces, moments, dt, want):
    got = rigid_body_step(list(x), InertiaSet(**inertia), forces, moments, dt)
    assert [v.hex() for v in got] == list(want)


def test_stage_loop_equals_staged_oracle():
    # the one-loop RK4 against the stage-by-stage derivative/advance/combine it replaced
    rng = np.random.default_rng(53)
    signs = set()
    for dt in (0.005, 0.01, 0.02):
        for _ in range(700):
            i_x, i_y, i_z = rng.uniform(1e-4, 0.1, size=3)
            i_xz = float(rng.uniform(-0.9, 0.9) * math.sqrt(i_x * i_z))
            signs.add(math.copysign(1.0, i_xz))
            mass = float(rng.uniform(0.02, 5.0))
            inertia = InertiaSet(m=mass, i_x=float(i_x), i_y=float(i_y), i_z=float(i_z), i_xz=i_xz)
            scale = 10.0 ** rng.integers(-2, 2)
            x = [
                *rng.uniform(-5.0, 5.0, size=3).tolist(),
                *(scale * rng.uniform(-3.0, 3.0, size=3)).tolist(),
                *rng.uniform(-3.6, 3.6, size=3).tolist(),  # angles on both sides of +-pi
                *(scale * rng.uniform(-20.0, 20.0, size=3)).tolist(),
            ]
            forces = (rng.uniform(-1.0, 1.0, size=3) * inertia.m * 20.0).tolist()
            moments = (rng.uniform(-1.0, 1.0, size=3) * 10.0 ** rng.integers(-4, 1)).tolist()
            got = rigid_body_step(list(x), inertia, forces, moments, dt)
            want = staged_rk4_step(list(x), inertia, forces, moments, dt)
            assert [v.hex() for v in got] == [v.hex() for v in want]
    assert signs == {1.0, -1.0}

    # zero state, forces and moments with zeros of either sign: the sums of the
    # combine start from stage 1's derivatives, as 0.0 + -0.0 would give 0.0
    cases = []
    for _ in range(200):
        zeros = [math.copysign(0.0, sign) for sign in rng.choice([1.0, -1.0], size=19)]
        cases.append((zeros[:12], InertiaSet(i_xz=math.copysign(0.004, zeros[18])), zeros[12:15], zeros[15:18]))
    # the angles at exactly +-pi: pi is kept, -pi wraps to pi
    for angles in itertools.product((math.pi, -math.pi), repeat=3):
        cases.append(([0.0] * 6 + list(angles) + [0.0] * 3, InertiaSet(), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    # one angle at a time carried across +-pi by its own rate, the other two at zero
    crossing = []
    for i in (6, 7, 8):
        for sign in (1.0, -1.0):
            x = [0.0] * 12
            x[i], x[i + 3] = sign * (math.pi - 1e-4), sign * 1.0
            crossing.append((i, sign))
            cases.append((x, InertiaSet(), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    results = []
    for x, inertia, forces, moments in cases:
        got = rigid_body_step(list(x), inertia, forces, moments, 0.01)
        want = staged_rk4_step(list(x), inertia, forces, moments, 0.01)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        results.append(got)
    assert any(v == 0.0 and math.copysign(1.0, v) < 0.0 for got in results[:200] for v in got)
    assert {tuple(got[6:9]) for got in results[200:208]} == {(math.pi, math.pi, math.pi)}
    for (i, sign), got in zip(crossing, results[208:]):
        assert [math.copysign(1.0, got[j]) if j == i else got[j] for j in (6, 7, 8)] == [
            -sign if j == i else 0.0 for j in (6, 7, 8)
        ]


@pytest.mark.parametrize(
    "forces, moments, huge",
    [
        (np.array([0.4, -0.2, -30.0]), np.array([0.01, -0.02, 0.005]), np.array([1.7e308, 0.0, 0.0])),
        ([0, 1, -30], (1, 0, -1), [int(1.7e308), 0, 0]),
    ],
    ids=["numpy", "int"],
)
def test_state_stays_plain_python_floats(forces, moments, huge):
    inertia = InertiaSet(i_xz=0.004)
    state = [0.0] * 12
    for _ in range(3):
        state = rigid_body_step(state, inertia, forces, moments, 0.01)
        assert len(state) == 12
        assert all(type(value) is float for value in state)
    # a force near the float maximum overflows the new state: that is a
    # FloatingPointError naming the components, not a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"non-finite .*\bu\b"):
            rigid_body_step([0.0] * 12, inertia, huge, moments, 1.0)
