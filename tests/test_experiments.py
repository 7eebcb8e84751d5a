"""Tests for the experiment harness, reporting, and figure functions."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigError
from repro.experiments import (
    ExperimentRecord,
    ExperimentRunner,
    format_kv,
    format_table,
    table1,
)
from repro.experiments.figures import _fit_layers, _maybe_reduce, _scale
from repro.experiments.reporting import bar
from repro.hw import a100_pcie_node, v100_nvlink_node
from repro.models import GLM_130B, OPT_30B
from repro.profiling.contention_profiler import ContentionFactors


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [100, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "-" in lines[1]
        widths = {len(l) for l in lines[1:]}
        assert len(widths) <= 2  # data rows align with the rule

    def test_format_kv(self):
        text = format_kv([("alpha", 1.5), ("b", "x")])
        assert "alpha : 1.500" in text
        assert "b" in text and ": x" in text

    def test_bar(self):
        assert bar(5, 10, width=10) == "#####"
        assert bar(20, 10, width=10) == "#" * 10
        assert bar(1, 0) == ""

    def test_float_formatting(self):
        text = format_table(["x"], [[12345.6], [42.123], [0.12345], [0]])
        assert "12,346" in text
        assert "42.1" in text
        assert "0.123" in text


class TestRunner:
    def setup_method(self):
        self.model = OPT_30B.scaled_layers(6)
        self.node = v100_nvlink_node(4)
        self.runner = ExperimentRunner(
            self.model,
            self.node,
            figure="t",
            contention_factors=ContentionFactors(compute=1.05, comm=1.1),
        )

    def test_saturation_rate_positive_and_scales_with_batch(self):
        r2 = self.runner.saturation_rate(2)
        r8 = self.runner.saturation_rate(8)
        assert r2 > 0
        # Larger batches amortise per-kernel overheads: more req/s.
        assert r8 > r2

    def test_relative_rates(self):
        rates = self.runner.relative_rates((0.5, 1.0), 2)
        assert rates[0] == pytest.approx(self.runner.saturation_rate(2) * 0.5, rel=0.01)
        assert len(rates) == 2

    def test_run_point_produces_record(self):
        record, result = self.runner.run_point(
            "intra", 10.0, num_requests=8, batch_size=2
        )
        assert record.strategy == "intra"
        assert record.avg_latency_ms > 0
        assert result.metrics.num_completed == 8

    def test_sweep_cartesian(self):
        records = self.runner.sweep(
            ("intra", "liger"), (10.0, 20.0), num_requests=8, batch_size=2
        )
        assert len(records) == 4
        assert {(r.strategy, r.rate) for r in records} == {
            ("intra", 10.0), ("liger", 10.0), ("intra", 20.0), ("liger", 20.0)
        }

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError):
            self.runner.run_point("intra", 10.0, workload="bogus")

    def test_record_row_matches_headers(self):
        record, _ = self.runner.run_point("intra", 10.0, num_requests=4, batch_size=2)
        assert len(record.row()) == len(ExperimentRecord.ROW_HEADERS)


class TestFigureHelpers:
    def test_scale_lookup(self):
        assert _scale("smoke").requests < _scale("full").requests
        with pytest.raises(ConfigError):
            _scale("huge")

    def test_maybe_reduce(self):
        sc = _scale("smoke")
        reduced = _maybe_reduce(OPT_30B, sc)
        assert reduced.num_layers == 8
        full = _maybe_reduce(OPT_30B, _scale("quick"))
        assert full is OPT_30B

    def test_fit_layers_respects_device_memory(self):
        # OPT-30B (60 GB) into one 16 GB V100: about a quarter of the layers.
        layers = _fit_layers(OPT_30B, v100_nvlink_node(1))
        assert 8 <= layers <= 16
        # GLM-130B (260 GB) into one 80 GB A100.
        layers = _fit_layers(GLM_130B, a100_pcie_node(1))
        assert 15 <= layers <= 25

    def test_table1_exact(self):
        result = table1()
        assert "7168" in result.text
        assert "12288" in result.text
        assert "FP16" in result.text


class TestFiguresSmoke:
    """Each figure function must run end-to-end at smoke scale."""

    @pytest.mark.parametrize("name", ["fig3", "fig13", "fig14", "ablations"])
    def test_figure_smoke(self, name):
        from repro.experiments import ALL_FIGURES

        result = ALL_FIGURES[name](scale="smoke")
        assert result.figure == name
        assert result.text
        assert result.summary


class TestCli:
    def test_workers_print_the_sequential_figures(self):
        """``--workers 2`` prints the sequential run's figures, in order.

        Only the headers may differ: the sequential loop annotates each
        with its ``[x.xs]`` timing, and the pool adds one summary line.
        ``fig3`` is one of the memoized registry entries, which the pool
        must reach by name.
        """
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)

        def run(*extra):
            cmd = [sys.executable, "-m", "repro.experiments", "fig4", "table1", "fig3",
                   "--scale", "smoke", *extra]
            return subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  check=True, timeout=300).stdout

        sequential = re.sub(r" \[\d+\.\d+s\] ===$", " ===", run(), flags=re.M)
        pooled, summary = run("--workers", "2").rstrip("\n").rsplit("\n\n", 1)
        assert summary.startswith("3 figure(s) in ")
        assert sequential.count("\n=== ") == 3
        assert pooled == sequential.rstrip("\n")
