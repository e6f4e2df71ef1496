"""Documentation integrity checks.

Keeps the prose honest: the files exist, the experiment index covers
every figure, the module paths named in DESIGN.md / ALGORITHMS.md
actually import, every ``repro <subcommand> --flag`` shown in a fenced
shell block parses against the real CLI, and every relative
markdown link resolves.
"""

import argparse
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    "docs/README.md",
    "docs/ALGORITHMS.md",
    "docs/AUTOSCALING.md",
    "docs/OBSERVABILITY.md",
    "docs/RUNTIME.md",
]


def _fenced_shell_blocks(text: str) -> list[str]:
    """Contents of ```bash / ```sh / ```console fenced blocks."""
    return re.findall(
        r"```(?:bash|sh|shell|console)\n(.*?)```", text, flags=re.DOTALL
    )


def _repro_invocations(block: str) -> list[tuple[str, list[str]]]:
    """(subcommand, flags) pairs for every ``python -m repro`` call."""
    # join backslash line continuations, strip console prompts
    joined = re.sub(r"\\\n\s*", " ", block)
    calls = []
    for line in joined.splitlines():
        line = line.strip().lstrip("$ ").strip()
        m = re.search(r"python -m repro\s+(.*)", line)
        if not m:
            continue
        tokens = m.group(1).split()
        if not tokens or tokens[0].startswith("-"):
            continue
        sub = tokens[0]
        flags = [t for t in tokens[1:] if t.startswith("--")]
        calls.append((sub, [f.split("=")[0] for f in flags]))
    return calls


@pytest.fixture(scope="module")
def design_text() -> str:
    return (ROOT / "DESIGN.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def experiments_text() -> str:
    return (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")


class TestDocFilesExist:
    @pytest.mark.parametrize(
        "name",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "CONTRIBUTING.md",
            "LICENSE",
            "docs/README.md",
            "docs/ALGORITHMS.md",
            "docs/AUTOSCALING.md",
            "docs/OBSERVABILITY.md",
            "docs/RUNTIME.md",
        ],
    )
    def test_exists_and_nonempty(self, name):
        path = ROOT / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text(encoding="utf-8")) > 200


class TestDesignCoverage:
    def test_paper_check_present(self, design_text):
        assert "Paper check" in design_text

    @pytest.mark.parametrize(
        "figure", ["Fig. 2", "Fig. 3", "Fig. 4", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10"]
    )
    def test_every_figure_indexed(self, design_text, figure):
        assert figure in design_text

    def test_substitutions_documented(self, design_text):
        for substitution in ("Gurobi", "Kubernetes", "Alibaba"):
            assert substitution in design_text

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core.socl",
            "repro.core.online",
            "repro.ilp.scipy_backend",
            "repro.runtime.simulator",
            "repro.experiments.figures",
            "repro.serialization",
        ],
    )
    def test_named_modules_import(self, module):
        importlib.import_module(module)


class TestExperimentsCoverage:
    @pytest.mark.parametrize(
        "figure", ["Fig. 2", "Fig. 3", "Fig. 4", "Fig. 7", "Fig. 8", "Fig. 9", "Fig. 10"]
    )
    def test_every_figure_reported(self, experiments_text, figure):
        assert figure in experiments_text

    def test_every_figure_marked_reproducing(self, experiments_text):
        assert experiments_text.count("Shape: reproduces") >= 7


class TestCliExamplesParse:
    """Every ``python -m repro`` call shown in a fenced shell block uses
    a subcommand and flags that exist in the real argument parser."""

    @pytest.fixture(scope="class")
    def subparsers(self) -> dict:
        from repro.cli import build_parser

        parser = build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return dict(action.choices)
        raise AssertionError("CLI parser has no subcommands")

    @pytest.fixture(scope="class")
    def documented_calls(self) -> list[tuple[str, str, list[str]]]:
        calls = []
        for name in DOC_FILES:
            text = (ROOT / name).read_text(encoding="utf-8")
            for block in _fenced_shell_blocks(text):
                for sub, flags in _repro_invocations(block):
                    calls.append((name, sub, flags))
        return calls

    def test_docs_show_cli_examples(self, documented_calls):
        assert len(documented_calls) >= 5

    def test_subcommands_exist(self, documented_calls, subparsers):
        for doc, sub, _ in documented_calls:
            assert sub in subparsers, f"{doc}: unknown subcommand {sub!r}"

    def test_flags_exist(self, documented_calls, subparsers):
        for doc, sub, flags in documented_calls:
            known = subparsers[sub]._option_string_actions
            for flag in flags:
                assert flag in known, (
                    f"{doc}: `repro {sub}` has no flag {flag!r}"
                )

    def test_resilience_documented(self, documented_calls):
        assert any(sub == "resilience" for _, sub, _ in documented_calls)

    def test_autoscale_documented(self, documented_calls):
        assert any(
            sub == "autoscale" and doc == "docs/AUTOSCALING.md"
            for doc, sub, _ in documented_calls
        )


class TestDocLinksResolve:
    """Relative markdown links point at files that exist."""

    LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

    @pytest.mark.parametrize("name", DOC_FILES)
    def test_relative_links(self, name):
        doc = ROOT / name
        broken = []
        for target in self.LINK.findall(doc.read_text(encoding="utf-8")):
            if re.match(r"[a-z]+://|mailto:", target) or target.startswith("#"):
                continue
            path = target.split("#")[0]
            if path and not (doc.parent / path).exists():
                broken.append(target)
        assert not broken, f"{name}: broken relative links {broken}"


class TestBenchCoverage:
    def test_one_bench_per_figure(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        for fig in ("fig2", "fig3", "fig4", "fig7", "fig8", "fig9", "fig10"):
            assert any(fig in b for b in benches), f"no bench for {fig}"

    def test_ablation_and_extension_benches(self):
        benches = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        assert "bench_ablations.py" in benches
        assert "bench_online.py" in benches
        assert "bench_robustness.py" in benches
        assert "bench_components.py" in benches
