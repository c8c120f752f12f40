"""LINT000, ``--select`` family expansion, and whole-tree meta-tests."""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.engine import all_rules, expand_select
from repro.lint.project import Project
from repro.onfi.wire import Op

from .conftest import codes, lint

REPO = Path(__file__).resolve().parents[2]


def src(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


class TestLint000:
    def test_unknown_noqa_code_warns(self, project):
        root = project({
            "src/repro/experiments/mod.py": "X = 1  # repro: noqa[ZZZ999]\n",
        })
        findings = lint(root, select=["LINT000"])
        assert codes(findings) == ["LINT000"]
        assert "ZZZ999" in findings[0].message
        assert findings[0].severity.value == "warning"

    def test_known_code_is_quiet(self, project):
        root = project({
            "src/repro/experiments/mod.py": "X = 1  # repro: noqa[DET001]\n",
        })
        assert codes(lint(root, select=["LINT000"])) == []

    def test_mixed_list_flags_only_the_unknown(self, project):
        root = project({
            "src/repro/experiments/mod.py": (
                "X = 1  # repro: noqa[DET001, DET999]\n"
            ),
        })
        findings = lint(root, select=["LINT000"])
        assert codes(findings) == ["LINT000"]
        assert "DET999" in findings[0].message

    def test_docstring_prose_is_not_a_suppression(self, project):
        root = project({
            "src/repro/experiments/mod.py": src(
                '''
                """Write # repro: noqa[FAKE999] on the offending line."""

                X = 1
                '''
            ),
        })
        assert codes(lint(root, select=["LINT000"])) == []


class TestSelectFamilies:
    def test_family_prefix_expands(self):
        rules = all_rules()
        chosen = expand_select(["CONC"], rules)
        assert chosen == {c for c in rules if c.startswith("CONC")}
        assert len(chosen) == 2

    def test_comma_joined_mix(self):
        rules = all_rules()
        chosen = expand_select(["CONC,DET003"], rules)
        assert "CONC001" in chosen and "CONC002" in chosen
        assert "DET003" in chosen and "DET001" not in chosen

    def test_unknown_item_raises(self):
        with pytest.raises(ValueError, match="BOGUS"):
            expand_select(["BOGUS"], all_rules())

    def test_run_lint_accepts_family(self, project):
        root = project({
            "src/repro/experiments/mod.py": "X = 1  # repro: noqa[NOPE1]\n",
        })
        # CONC family selected -> LINT000 not active -> clean.
        assert codes(lint(root, select=["CONC"])) == []


class TestTreeMeta:
    """The analyses hold on this repository itself."""

    def test_src_tree_has_zero_unsuppressed_findings(self):
        result = run_lint([REPO / "src"], root=REPO)
        assert codes(result.findings) == []
        # Exactly one justified suppression survives the flow-sensitive
        # engine (the os.urandom connection tag in onfi/client.py).
        assert len(result.suppressed) == 1
        assert result.wall_s > 0.0

    def test_tests_and_benchmarks_pass_relaxed_selection(self):
        result = run_lint(
            [REPO / "tests", REPO / "benchmarks"],
            root=REPO,
            select=["CONC,DET003"],
        )
        assert codes(result.findings) == []

    def test_every_wire_handler_is_dispatch_reachable(self):
        # ChipServer builds its handler table from the opcode enum, not
        # from a class-body dict; the DET and CONC rules must still see
        # every handler behind the frame dispatch.
        project = Project.load(REPO, sorted((REPO / "src").rglob("*.py")))
        server = project.modules["repro.onfi.server"]
        handlers = {
            qualname for qualname in server.functions
            if qualname.startswith("ChipServer._op_")
        }
        assert len(handlers) == len(Op)
        reachable = project.parallel_reachable()
        missing = {
            qualname for qualname in handlers
            if ("repro.onfi.server", qualname) not in reachable
        }
        assert missing == set()

    def test_seeded_wire_handler_violation_is_caught(self, tmp_path):
        # A wall-clock value written to unguarded module state from a
        # real wire handler, in a copy of src/: DET001 (the value reaches
        # module state), DET002 and CONC001 (the handler is reachable
        # from ChipServer.serve) must all fire.
        shutil.copytree(REPO / "src", tmp_path / "src")
        server = tmp_path / "src" / "repro" / "onfi" / "server.py"
        text = server.read_text(encoding="utf-8")
        text = text.replace(
            "\n\nclass ChipServer",
            "\n\n_SEEDED_LOCK = threading.Lock()\n_SEEDED = 0.0\n"
            "\n\nclass ChipServer",
            1,
        )
        handler = "    def _op_advance_time(self, flags, seconds):\n"
        assert handler in text
        text = text.replace(
            handler,
            handler + "        global _SEEDED\n"
            "        import time\n"
            "        _SEEDED = time.time()\n",
        )
        server.write_text(text, encoding="utf-8")
        findings = run_lint([tmp_path / "src"], root=tmp_path).findings
        seeded = {
            f.rule for f in findings
            if f.path == "src/repro/onfi/server.py"
            and f.symbol == "ChipServer._op_advance_time"
        }
        assert seeded == {"DET001", "DET002", "CONC001"}

    def test_full_analysis_stays_under_budget(self):
        result = run_lint([REPO / "src"], root=REPO)
        assert result.wall_s < 10.0
