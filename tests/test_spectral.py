import math

import numpy as np
import pytest
from scipy import fft as sfft

from fkpeaks import spectral as sp
from fkpeaks.errors import (
    GridMismatchError,
    NonFiniteFieldError,
    ParameterError,
)
from tests_support import integrate, pack, unpack


class TestGridSpec:
    def test_spacing_and_axes(self):
        g = sp.GridSpec(1, 10.0, 64)
        assert g.spacing == pytest.approx(20.0 / 64)
        assert g.axis[0] == -10.0
        assert g.axis[-1] == pytest.approx(10.0 - g.spacing)
        # wavenumber spacing pi/L
        assert g.wavenumbers_axis[1] == pytest.approx(math.pi / 10.0)

    @pytest.mark.parametrize("bad", [
        dict(dim=4, half_width=1.0, points_per_dim=32),
        dict(dim=1, half_width=-1.0, points_per_dim=32),
        dict(dim=1, half_width=1.0, points_per_dim=33),
        dict(dim=1, half_width=1.0, points_per_dim=8),
        dict(dim=1, half_width=math.nan, points_per_dim=32),
        dict(dim=1, half_width=math.inf, points_per_dim=32),
    ])
    def test_validation(self, bad):
        with pytest.raises(ParameterError):
            sp.GridSpec(**bad)


class TestField:
    def test_rejects_nonfinite(self):
        g = sp.GridSpec(1, 1.0, 16)
        vals = np.zeros(16)
        vals[3] = np.nan
        with pytest.raises(NonFiniteFieldError):
            sp.Field(g, vals)

    def test_values_frozen(self):
        g = sp.GridSpec(1, 1.0, 16)
        f = sp.Field(g, np.ones(16))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_spectral_cache_consistent(self):
        g = sp.GridSpec(1, 4.0, 64)
        f = sp.Field(g, np.exp(-g.axis**2))
        back = sp.Field.from_spectral(g, f.spectral())
        rel = np.abs(back.values - f.values).max() / np.abs(f.values).max()
        assert rel < 1e-12

    def test_shape_mismatch(self):
        g = sp.GridSpec(2, 1.0, 16)
        with pytest.raises(GridMismatchError):
            sp.Field(g, np.zeros(16))


class TestFractionalLaplacian:
    @pytest.mark.parametrize("s", [0.4, 0.75, 1.0])
    @pytest.mark.parametrize("k", [2, 5, 50, 100])
    def test_plane_wave_eigenfunction(self, s, k):
        g = sp.GridSpec(1, 10.0, 256)
        xi0 = g.wavenumbers_axis[k]
        f = sp.Field(g, np.cos(xi0 * g.axis))
        out = sp.fractional_laplacian(f, s)
        lam = abs(xi0) ** (2 * s)
        err = np.abs(out.values - lam * f.values).max() / lam
        assert err < 1e-12

    def test_constant_annihilated(self):
        g = sp.GridSpec(2, 3.0, 32)
        f = sp.Field(g, np.ones(g.shape))
        out = sp.fractional_laplacian(f, 0.6)
        assert np.abs(out.values).max() < 1e-13

    def test_classical_limit(self):
        g = sp.GridSpec(1, np.pi, 64)
        k = 3.0  # integer wavenumber on the pi box
        f = sp.Field(g, np.sin(k * g.axis))
        out = sp.fractional_laplacian(f, 1.0)
        assert np.abs(out.values - k**2 * f.values).max() < 1e-10

    def test_s_out_of_range(self):
        g = sp.GridSpec(1, 1.0, 16)
        f = sp.Field(g, np.ones(16))
        with pytest.raises(ParameterError):
            sp.fractional_laplacian(f, 1.5)
        with pytest.raises(ParameterError):
            sp.fractional_laplacian(f, 0.0)

    def test_symmetry_preserved(self):
        g = sp.GridSpec(1, 8.0, 128)
        f = sp.Field(g, np.exp(-g.axis**2))
        out = sp.fractional_laplacian(f, 0.6).values
        reflected = np.roll(out[::-1], 1)
        assert np.abs(out - reflected).max() < 1e-12 * np.abs(out).max()

    def test_self_adjoint(self):
        g = sp.GridSpec(1, 6.0, 128)
        f = sp.random_band_limited(g, 4.0, seed=5)
        h = sp.random_band_limited(g, 4.0, seed=6)
        lhs = integrate(g, sp.fractional_laplacian(f, 0.7).values * h.values)
        rhs = integrate(g, sp.fractional_laplacian(h, 0.7).values * f.values)
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)


class TestHalfLaplacian:
    def test_plane_wave(self):
        g = sp.GridSpec(1, 10.0, 256)
        xi0 = g.wavenumbers_axis[7]
        f = sp.Field(g, np.cos(xi0 * g.axis))
        out = sp.half_laplacian(f, 0.8)
        lam = abs(xi0) ** 0.8
        assert np.abs(out.values - lam * f.values).max() / lam < 1e-12

    def test_composition(self):
        g = sp.GridSpec(1, 10.0, 256)
        f = sp.random_band_limited(g, 5.0, seed=2)
        twice = sp.half_laplacian(sp.half_laplacian(f, 0.6), 0.6)
        full = sp.fractional_laplacian(f, 0.6)
        rel = np.abs(twice.values - full.values).max()
        assert rel < 1e-12 * np.abs(full.values).max()

    def test_parseval(self):
        g = sp.GridSpec(1, 10.0, 256)
        f = sp.random_band_limited(g, 5.0, seed=3)
        half = sp.half_laplacian(f, 0.6)
        direct = integrate(g, half.values**2)
        assert abs(direct - sp.seminorm_sq(f, 0.6)) < 1e-12 * direct


class TestIntegrate:
    def test_constant(self):
        g = sp.GridSpec(2, 3.0, 32)
        assert integrate(g, np.ones(g.shape)) == pytest.approx(6.0**2)

    @pytest.mark.parametrize("dim,m", [(1, 256), (2, 128)])
    def test_gaussian(self, dim, m):
        g = sp.GridSpec(dim, 9.0, m)
        f = np.exp(-sum(x**2 for x in g.coords))
        assert abs(integrate(g, f) - math.pi ** (dim / 2)) < 1e-10

    def test_odd_function(self):
        # box large enough that the unpaired grid point at -L sits below
        # the cancellation target
        g = sp.GridSpec(1, 8.0, 128)
        f = g.axis * np.exp(-g.axis**2)
        assert abs(integrate(g, f)) < 1e-12


class TestDot:
    # a packed vector at 128^2, a stack of 128^2 fields as solve_profile
    # passes them, and a stack of stacks
    @pytest.mark.parametrize("shape", [(16640,), (3, 16384), (2, 3, 2048)])
    def test_matches_blas_dot(self, shape):
        # positive entries: no cancellation, so the sums agree relatively
        rng = np.random.default_rng(17)
        a, b = rng.random(shape), rng.random(shape)
        got = sp.dot(a, b)
        rows = zip(a.reshape(-1, shape[-1]), b.reshape(-1, shape[-1]))
        ref = np.array([np.dot(x, y) for x, y in rows]).reshape(shape[:-1])
        assert np.all(np.abs(got - ref) <= 1e-14 * ref)
        if len(shape) == 1:
            assert type(got) is float


class TestScalingLaw:
    def test_integer_rescale(self):
        # ||(-D)^{s/2} f(lam .)||^2 = lam^(2s-N) ||(-D)^{s/2} f||^2
        g = sp.GridSpec(1, 12.0, 1024)
        s, lam = 0.6, 2
        f1 = sp.Field(g, np.exp(-g.axis**2))
        f2 = sp.Field(g, np.exp(-(lam * g.axis) ** 2))
        ratio = sp.seminorm_sq(f2, s) / sp.seminorm_sq(f1, s)
        # quadrature error from the |xi|^2s kink at 0 is O((pi/L)^(1+2s))
        assert ratio == pytest.approx(lam ** (2 * s - 1), rel=2e-2)

    def test_rescale_error_shrinks_with_box(self):
        s, lam = 0.6, 2
        errs = []
        for L, m in ((12.0, 1024), (24.0, 2048)):
            g = sp.GridSpec(1, L, m)
            f1 = sp.Field(g, np.exp(-g.axis**2))
            f2 = sp.Field(g, np.exp(-(lam * g.axis) ** 2))
            ratio = sp.seminorm_sq(f2, s) / sp.seminorm_sq(f1, s)
            errs.append(abs(ratio - lam ** (2 * s - 1)))
        assert errs[1] < 0.5 * errs[0]


class TestTranslateInterpolate:
    def test_translate_exact_on_plane_wave(self):
        g = sp.GridSpec(1, 10.0, 128)
        xi0 = g.wavenumbers_axis[5]
        f = sp.Field(g, np.cos(xi0 * g.axis))
        out = sp.translate(f, [0.37])
        expected = np.cos(xi0 * (g.axis - 0.37))
        assert np.abs(out.values - expected).max() < 1e-13

    def test_interpolate_band_limited(self):
        g = sp.GridSpec(2, 9.0, 64)
        x, y = g.coords
        f = sp.Field(g, np.exp(-(x**2 + y**2)))
        pts = np.array([[0.33, -1.2], [2.0, 0.5], [-3.1, 0.05]])
        vals = sp.interpolate(f, pts)
        exact = np.exp(-(pts[:, 0] ** 2 + pts[:, 1] ** 2))
        assert np.abs(vals - exact).max() < 1e-10

    def test_translate_keeps_real(self):
        g = sp.GridSpec(1, 5.0, 64)
        f = sp.random_band_limited(g, 8.0, seed=1)
        out = sp.translate(f, [0.1234])
        assert np.isrealobj(out.values)


def _full_wavenumbers(g):
    """Signed wavenumbers of the full complex-FFT layout along one axis."""
    return 2.0 * np.pi * sfft.fftfreq(g.points_per_dim, d=g.spacing)


def _full_xi_sq(g):
    axes = np.meshgrid(*([_full_wavenumbers(g)] * g.dim), indexing="ij")
    return sum(a**2 for a in axes)


def _axis_factor(g, axis, factor):
    shape = [1] * g.dim
    shape[axis] = g.points_per_dim
    return factor.reshape(shape)


def _ref_seminorm_inner(g, s, u, v):
    w = g.spacing ** g.dim / g.points_per_dim ** g.dim
    prod = sfft.fftn(u).conj() * sfft.fftn(v)
    return float(w * (_full_xi_sq(g) ** s * prod).sum().real)


def _ref_fractional_laplacian(g, s, u):
    return sfft.ifftn(_full_xi_sq(g) ** s * sfft.fftn(u)).real


def _ref_derivative(g, axis, u):
    xi = _full_wavenumbers(g)
    xi[g.points_per_dim // 2] = 0.0
    return sfft.ifftn(1j * _axis_factor(g, axis, xi) * sfft.fftn(u)).real


def _ref_translate(g, shift, u):
    m = g.points_per_dim
    coeffs = sfft.fftn(u)
    xi = _full_wavenumbers(g)
    for axis in range(g.dim):
        phase = np.exp(-1j * xi * shift[axis])
        phase[m // 2] = math.cos(xi[m // 2] * shift[axis])
        coeffs = coeffs * _axis_factor(g, axis, phase)
    return sfft.ifftn(coeffs).real


def _ref_interpolate(g, u, pts):
    m = g.points_per_dim
    xi = _full_wavenumbers(g)
    out = sfft.fftn(u) / m ** g.dim
    for axis in range(g.dim):
        offset = pts[:, axis] + g.half_width
        basis = np.exp(1j * np.outer(offset, xi))
        basis[:, m // 2] = np.cos(offset * xi[m // 2])
        spec = "pm,m...->p..." if axis == 0 else "pm,pm...->p..."
        out = np.einsum(spec, basis, out)
    return out.real


def _ref_random_band_limited(g, cutoff, seed):
    vals = np.random.default_rng(seed).standard_normal(g.shape)
    coeffs = np.where(_full_xi_sq(g) <= cutoff**2, sfft.fftn(vals), 0.0)
    nyq = np.zeros(g.shape, dtype=bool)
    for axis in range(g.dim):
        index = [slice(None)] * g.dim
        index[axis] = g.points_per_dim // 2
        nyq[tuple(index)] = True
    coeffs[nyq] = 0.0
    out = sfft.ifftn(coeffs).real
    return out / np.abs(out).max()


def _rel(got, ref):
    return np.abs(np.asarray(got) - ref).max() / np.abs(ref).max()


HALF_SPECTRUM_GRIDS = [(1, 3.0, 32), (2, 2.5, 16), (3, 2.0, 16)]


class TestHalfSpectrumAgainstComplexFFT:
    """The half-spectrum calculus against a full complex-FFT reference, on
    fields with content up to the Nyquist modes."""

    @pytest.fixture(params=HALF_SPECTRUM_GRIDS,
                    ids=[f"{d}d" for d, _, _ in HALF_SPECTRUM_GRIDS])
    def fields(self, request):
        g = sp.GridSpec(*request.param)
        rng = np.random.default_rng(17)
        u, v = rng.standard_normal((2,) + g.shape)
        return g, u, v

    @pytest.mark.parametrize("s", [0.4, 0.75, 1.0])
    def test_seminorm_inner(self, fields, s):
        g, u, v = fields
        uhat, vhat = sp._fftn(u), sp._fftn(v)
        ref_uu = _ref_seminorm_inner(g, s, u, u)
        ref_uv = _ref_seminorm_inner(g, s, u, v)
        assert abs(sp.seminorm_inner(g, s, uhat) - ref_uu) <= 1e-13 * ref_uu
        assert abs(sp.seminorm_inner(g, s, uhat, vhat) - ref_uv) \
            <= 1e-13 * ref_uu

    @pytest.mark.parametrize("s", [0.4, 0.75, 1.0])
    def test_fractional_laplacian(self, fields, s):
        g, u, _ = fields
        got = sp.fractional_laplacian(sp.Field(g, u), s).values
        assert _rel(got, _ref_fractional_laplacian(g, s, u)) < 1e-13

    def test_derivative_every_axis(self, fields):
        g, u, _ = fields
        for axis in range(g.dim):
            got = sp.derivative(sp.Field(g, u), axis).values
            assert _rel(got, _ref_derivative(g, axis, u)) < 1e-13

    def test_translate_every_axis(self, fields):
        g, u, _ = fields
        for axis in range(g.dim):
            shift = np.zeros(g.dim)
            shift[axis] = 0.37 * g.spacing      # off the grid
            got = sp.translate(sp.Field(g, u), shift).values
            assert _rel(got, _ref_translate(g, shift, u)) < 1e-13
        shift = g.spacing * np.array([0.31, -1.7, 2.45][:g.dim])
        got = sp.translate(sp.Field(g, u), shift).values
        assert _rel(got, _ref_translate(g, shift, u)) < 1e-13

    def test_interpolate(self, fields):
        g, u, _ = fields
        pts = np.random.default_rng(3).uniform(
            -g.half_width, g.half_width, (7, g.dim))
        got = sp.interpolate(sp.Field(g, u), pts)
        assert _rel(got, _ref_interpolate(g, u, pts)) < 1e-13

    def test_random_band_limited(self, fields):
        g = fields[0]
        cutoff = 1.2 * float(np.pi / g.spacing)  # reaches the Nyquist modes
        got = sp.random_band_limited(g, cutoff, seed=(4, 1)).values
        ref = _ref_random_band_limited(g, cutoff, (4, 1))
        assert _rel(got, ref) < 1e-13

    def test_packing_is_an_isometry(self, fields):
        # T+ T u = u, and T keeps Euclidean norms and inner products
        g, u, v = fields
        zu, zv = pack(g, sp._fftn(u)), pack(g, sp._fftn(v))
        assert zu.dtype == float and zu.size == 2 * sp._fftn(u).size
        assert _rel(sp._ifftn(unpack(g, zu)), u) < 1e-14
        assert abs(np.linalg.norm(zu) - np.linalg.norm(u)) \
            <= 1e-14 * np.linalg.norm(u)
        assert abs(zu @ zv - (u * v).sum()) <= 1e-13 * np.linalg.norm(u) \
            * np.linalg.norm(v)

    def test_make_hermitian_projects_onto_real_spectra(self, fields):
        # an arbitrary half spectrum: the projection keeps the real field
        # it stands for, is idempotent, and removes a part orthogonal to
        # every real field's packed spectrum
        g, u, v = fields
        rng = np.random.default_rng(5)
        shape = sp._fftn(u).shape
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        px = x.copy()
        sp.make_hermitian(g, px)
        assert _rel(sp._ifftn(px), sp._ifftn(x)) < 1e-14
        ppx = px.copy()
        sp.make_hermitian(g, ppx)
        assert np.array_equal(ppx, px)
        off = pack(g, x) - pack(g, px)
        assert abs(off @ pack(g, sp._fftn(v))) \
            <= 1e-13 * np.linalg.norm(off) * np.linalg.norm(v)
        vhat = sp._fftn(v)
        pv = vhat.copy()
        sp.make_hermitian(g, pv)
        assert _rel(pv, vhat) < 1e-14


class TestStackedTransforms:
    """A (k, *grid) stack transformed over its grid axes in one call
    equals the transforms of its slices, to the bit."""

    @pytest.mark.parametrize("dim,points", [(1, 256), (2, 32)])
    def test_stack_matches_slices(self, dim, points):
        g = sp.GridSpec(dim, 4.0, points)
        stack = np.random.default_rng(3).standard_normal((3,) + g.shape)
        axes = tuple(range(1, dim + 1))
        spectra = sp._fftn(stack, axes=axes)
        back = sp._ifftn(spectra, axes=axes)
        for i in range(3):
            assert np.array_equal(spectra[i], sp._fftn(stack[i]))
            assert np.array_equal(back[i], sp._ifftn(sp._fftn(stack[i])))
        assert back.shape == stack.shape


class TestTransformsMatchScipy:
    """numpy.fft one axis at a time, in scipy.fft.rfftn's order, gives
    scipy's bits: the same pocketfft, and the inverse scaled once by
    1/M^N, as scipy scales it.  numpy's own rfftn takes the axes in the
    other order and misses in 3D by about 1e-13."""

    @pytest.mark.parametrize("shape,axes", [
        ((2048,), None),
        ((2, 2048), (1,)),
        ((128, 128), None),
        ((2, 128, 128), (1, 2)),
        ((32, 32, 32), None),
        # off powers of two, 1/M per axis misses scipy's 1/M^N by roundoff
        ((112, 112), None),
        ((2, 96, 96), (1, 2)),
        ((24, 24, 24), None),
    ], ids=["1d", "1d-stack", "2d", "2d-stack", "3d", "2d-112", "2d-stack-96",
            "3d-24"])
    def test_bitwise_equal(self, shape, axes):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(shape)
        half = sfft.rfftn(vals, axes=axes)
        assert np.array_equal(sp._fftn(vals, axes=axes), half)
        coeffs = half * (1.0 + rng.standard_normal(half.shape))
        assert np.array_equal(sp._ifftn(coeffs, axes=axes),
                              sfft.irfftn(coeffs, axes=axes))

    @pytest.mark.parametrize("points", [16, 112, 128, 384, 2048])
    def test_wavenumbers(self, points):
        g = sp.GridSpec(1, 3.0, points)
        assert np.array_equal(
            g.wavenumbers_axis,
            2.0 * np.pi * sfft.fftfreq(points, d=g.spacing))
        assert np.array_equal(
            g.wavenumbers_half,
            2.0 * np.pi * sfft.rfftfreq(points, d=g.spacing))


class TestProblemParams:
    def test_admissible_window(self):
        sp.ProblemParams(1, 0.4, 2.0, 1.0, 1.0)   # 2s < N < 4s holds
        sp.ProblemParams(2, 0.75, 2.0, 1.0, 1.0)

    def test_kirchhoff_needs_window(self):
        with pytest.raises(ParameterError):
            sp.ProblemParams(1, 0.6, 2.0, 1.0, 1.0)  # 2s > N
        with pytest.raises(ParameterError):
            sp.ProblemParams(3, 0.6, 2.0, 1.0, 1.0)  # 4s < N

    def test_subcritical_window(self):
        with pytest.raises(ParameterError):
            sp.ProblemParams(1, 0.4, 9.5, 1.0, 1.0)  # p >= 2N/(N-2s)-1 = 9
        with pytest.raises(ParameterError):
            sp.ProblemParams(1, 0.4, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("a, b, p", [
        (math.nan, 1.0, 2.0), (math.inf, 1.0, 2.0), (1.0, math.nan, 2.0),
        (1.0, math.inf, 2.0), (1.0, 1.0, math.nan),
    ])
    def test_non_finite_coefficients_refused(self, a, b, p):
        with pytest.raises(ParameterError):
            sp.ProblemParams(1, 0.4, p, a, b)

    def test_classical_needs_validation_mode(self):
        with pytest.raises(ParameterError):
            sp.ProblemParams(1, 1.0, 3.0, 1.0, 0.0)
        sp.ProblemParams(1, 1.0, 3.0, 1.0, 0.0, validation_mode=True)

    def test_critical_exponent(self):
        pp = sp.ProblemParams(1, 0.4, 2.0, 1.0, 0.0)
        assert pp.critical_exponent == pytest.approx(9.0)
        pp2 = sp.ProblemParams(1, 0.75, 2.0, 1.0, 0.0)
        assert pp2.critical_exponent == math.inf
