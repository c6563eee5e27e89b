"""The compiled peel kernel: resolution, fallback, dispatch, and parity.

The ``kernel="numba"`` switch must be a pure performance knob: with the
exact-DP estimator every decomposition is **bit-identical** across kernels
(the unit-drop peel keeps the Poisson-binomial repair in Python behind a
batched callback boundary).  The switch selects only the peel, so global
and weak decompositions, whose local pruning step runs that peel, must
return the same nuclei under both kernels; their world verification has a
single numpy implementation.  These tests run the kernel bodies through
:func:`repro.kernels.force_interpreted`, so the parity sweep is real
coverage of the kernel logic whether or not numba is installed; with numba
present the same dispatch compiles instead.

Alongside parity: kernel-name validation at every entry point, the
once-per-process numpy fallback warning, the builder/artifact recording of
the resolved kernel, and the ``repro_kernel_dispatch_total`` obs counter.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from graph_factories import bundled_graph, small_er_graph
from repro.core.approximations import PoissonEstimator
from repro.core.global_nucleus import global_nucleus_decomposition
from repro.core.hybrid import HybridEstimator
from repro.core.local import _csr_engine_arrays, local_nucleus_decomposition
from repro.core.weak_nucleus import weak_nucleus_decomposition
from repro.exceptions import InvalidParameterError
from repro.experiments.pipeline import RunConfig
from repro.graph.generators import clique_graph
from repro.index import build_index
from repro.kernels import (
    KERNELS,
    active_jit,
    force_interpreted,
    numba_available,
    reset_fallback_warning,
    resolve_kernel,
)
from repro.kernels import peel as kernel_peel
from repro.obs import capture as obs_capture
from repro.obs.metrics import REGISTRY as obs_registry
from repro.obs.metrics import snapshot as obs_snapshot


def nuclei_signature(nuclei):
    """Order-preserving comparable view of a global/weak nucleus list."""
    return [
        (nucleus.k, sorted(map(str, nucleus.subgraph.vertices())))
        for nucleus in nuclei
    ]


class TestResolveKernel:
    def test_known_names(self):
        assert KERNELS == ("numpy", "numba")
        assert resolve_kernel("numpy") == "numpy"

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            resolve_kernel("cython")

    @pytest.mark.skipif(numba_available(), reason="fallback only fires without numba")
    def test_fallback_warns_once_per_process(self):
        reset_fallback_warning()
        with pytest.warns(RuntimeWarning, match="falling back to the numpy kernels"):
            assert resolve_kernel("numba") == "numpy"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("numba") == "numpy"  # warned already: silent
        reset_fallback_warning()

    @pytest.mark.skipif(numba_available(), reason="fallback only fires without numba")
    def test_fallback_warning_suppressible(self):
        reset_fallback_warning()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel("numba", warn=False) == "numpy"
        # warn=False must not consume the once-per-process budget.
        with pytest.warns(RuntimeWarning):
            resolve_kernel("numba")
        reset_fallback_warning()

    def test_force_interpreted_keeps_numba_resolved(self):
        with force_interpreted():
            assert resolve_kernel("numba") == "numba"
            assert active_jit() is None

    @pytest.mark.skipif(not numba_available(), reason="needs numba installed")
    def test_numba_resolves_to_itself_when_installed(self):
        assert resolve_kernel("numba") == "numba"
        assert active_jit() is not None


class TestValidation:
    def test_local_unknown_kernel_rejected(self):
        graph = small_er_graph(seed=1)
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            local_nucleus_decomposition(graph, 0.3, kernel="fortran")

    def test_weak_unknown_kernel_rejected(self):
        graph = clique_graph(4, probability=1.0)
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            weak_nucleus_decomposition(
                graph, k=1, theta=0.3, n_samples=10, kernel="julia"
            )

    @pytest.mark.parametrize(
        "estimator", [PoissonEstimator(), HybridEstimator()], ids=lambda e: e.name
    )
    def test_peel_downgrades_non_unit_drop_repairs(self, estimator):
        # The compiled bucket queue serves unit-drop repairs only: a §5.3
        # approximation must run the numpy lazy heap even when
        # kernel="numba" resolves, because its scores depend on the exact
        # repair schedule.
        csr = small_er_graph(seed=3, probabilities=(0.4, 0.9)).to_csr()
        scores, peels = {}, {}
        obs_registry.reset()
        try:
            with force_interpreted():
                for kernel in KERNELS:
                    with obs_capture(enable=True) as sink:
                        _, scores[kernel] = _csr_engine_arrays(
                            csr, 0.3, estimator, kernel=kernel
                        )
                    (peels[kernel],) = [t for t in sink.traces() if t["name"] == "peel"]
        finally:
            obs_registry.reset()
        for kernel in KERNELS:
            assert peels[kernel]["attrs"]["kernel"] == "numpy", kernel
            assert peels[kernel]["attrs"]["queue"] == "heap", kernel
        assert np.array_equal(scores["numba"], scores["numpy"])


class TestWarmup:
    def test_warmup_runs_on_the_interpreted_kernels(self):
        # _warmup runs only when numba compiles; driving it through the plain
        # kernel set catches a stale entry point or argument list without numba.
        kernel_peel._warmup(kernel_peel._build(None))


class TestPeelParity:
    """Bit-identical peels across kernels (exact DP via the callback boundary)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    @pytest.mark.parametrize("theta", [0.05, 0.3])
    def test_er_graphs_bit_identical(self, seed, theta):
        csr = small_er_graph(14, 0.55, seed=seed, probabilities=(0.3, 0.95)).to_csr()
        with force_interpreted():
            numpy_result = local_nucleus_decomposition(csr, theta, kernel="numpy")
            numba_result = local_nucleus_decomposition(csr, theta, kernel="numba")
        assert numba_result.scores == numpy_result.scores
        assert numba_result.max_score == numpy_result.max_score

    @pytest.mark.parametrize("name", ["krogan", "dblp", "flickr"])
    def test_bundled_graphs_bit_identical(self, name):
        csr = bundled_graph(name).to_csr()
        with force_interpreted():
            numpy_result = local_nucleus_decomposition(csr, 0.3, kernel="numpy")
            numba_result = local_nucleus_decomposition(csr, 0.3, kernel="numba")
        assert numba_result.scores == numpy_result.scores


class TestVerificationParity:
    """Global/weak decompositions: same seed, same nuclei under either peel."""

    @pytest.mark.parametrize("algorithm", ["global", "weak"])
    @pytest.mark.parametrize("sampling", ["fixed", "adaptive"])
    def test_bundled_graph_parity(self, algorithm, sampling):
        graph = bundled_graph("krogan")
        run = (
            global_nucleus_decomposition
            if algorithm == "global"
            else weak_nucleus_decomposition
        )
        kwargs = {"sampling": sampling} if sampling == "adaptive" else {}
        with force_interpreted():
            results = {
                kernel: run(
                    graph, k=1, theta=0.3, n_samples=80, seed=5,
                    kernel=kernel, **kwargs,
                )
                for kernel in KERNELS
            }
        assert nuclei_signature(results["numba"]) == nuclei_signature(results["numpy"])

    @pytest.mark.parametrize("seed", [0, 4])
    def test_er_graph_parity(self, seed):
        graph = small_er_graph(10, 0.7, seed=seed, probabilities=(0.5, 1.0))
        with force_interpreted():
            results = {
                kernel: weak_nucleus_decomposition(
                    graph, k=1, theta=0.2, n_samples=60, seed=seed,
                    kernel=kernel,
                )
                for kernel in KERNELS
            }
        assert nuclei_signature(results["numba"]) == nuclei_signature(results["numpy"])


class TestRecording:
    def test_builder_omits_engine_params_at_defaults(self, tmp_path):
        graph = clique_graph(4, probability=0.9)
        index = build_index(graph, mode="local", theta=0.3)
        assert "kernel" not in index.params
        assert "partitions" not in index.params

    def test_builder_records_requested_and_resolved_kernel(self):
        graph = clique_graph(4, probability=0.9)
        with force_interpreted():
            index = build_index(
                graph, mode="local", theta=0.3, kernel="numba"
            )
            expected_resolution = resolve_kernel("numba", warn=False)
        assert index.params["kernel"] == "numba"
        assert index.params["kernel_resolved"] == expected_resolution == "numba"

    def test_run_config_validates_kernel(self):
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            RunConfig(scale="tiny", kernel="gpu")

    def test_run_config_sampling_kwargs_default_empty_of_engine_knobs(self):
        kwargs = RunConfig(scale="tiny").sampling_kwargs()
        assert "kernel" not in kwargs
        assert "partitions" not in kwargs

    def test_run_config_threads_kernel(self):
        kwargs = RunConfig(scale="tiny", kernel="numba").sampling_kwargs()
        assert kwargs["kernel"] == "numba"

    def test_dispatch_counter_increments(self):
        csr = clique_graph(4, probability=0.9).to_csr()
        obs_registry.reset()
        try:
            with obs_capture(enable=True):
                local_nucleus_decomposition(csr, 0.3, kernel="numpy")
                payload = obs_snapshot()
        finally:
            obs_registry.reset()
        dispatches = {
            (entry["labels"]["phase"], entry["labels"]["kernel"]): entry["value"]
            for entry in payload["metrics"]
            if entry["name"] == "repro_kernel_dispatch_total"
        }
        assert dispatches.get(("peel", "numpy"), 0) >= 1


@pytest.mark.tier2
class TestParitySweepTier2:
    """Broader cross-kernel sweep: every algorithm on many seeded graphs."""

    @pytest.mark.parametrize("seed", range(8))
    def test_local_parity_sweep(self, seed):
        csr = small_er_graph(16, 0.5, seed=seed, probabilities=(0.2, 1.0)).to_csr()
        for theta in (0.02, 0.2, 0.6):
            with force_interpreted():
                numpy_result = local_nucleus_decomposition(csr, theta, kernel="numpy")
                numba_result = local_nucleus_decomposition(csr, theta, kernel="numba")
            assert numba_result.scores == numpy_result.scores, (seed, theta)

    @pytest.mark.parametrize("name", ["krogan", "dblp", "flickr", "pokec", "biomine"])
    @pytest.mark.parametrize("algorithm", ["global", "weak"])
    def test_verification_parity_sweep(self, name, algorithm):
        graph = bundled_graph(name)
        run = (
            global_nucleus_decomposition
            if algorithm == "global"
            else weak_nucleus_decomposition
        )
        for k in (1, 2):
            with force_interpreted():
                results = {
                    kernel: run(
                        graph, k=k, theta=0.25, n_samples=120, seed=9,
                        kernel=kernel,
                    )
                    for kernel in KERNELS
                }
            assert nuclei_signature(results["numba"]) == nuclei_signature(
                results["numpy"]
            ), (name, algorithm, k)
