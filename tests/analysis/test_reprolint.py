"""Unit tests for the reprolint driver: suppressions, the CLI, the pytest
fixture, RPL000 handling, and the conservatism guarantees (what the linter
must *not* report)."""

import json

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.__main__ import main as cli_main
from repro.analysis.signatures import FACTORY_PARAMS, METHOD_SPECS
from repro.analysis.suppress import collect_suppressions


def codes(source, **kw):
    return [f.code for f in lint_source(source, **kw)]


class TestSuppressions:
    SRC = ("def main(comm):\n"
           "    comm.barrier(send_buf([1]))"
           "  # reprolint: disable=RPL002\n")

    def test_line_suppression(self):
        assert codes(self.SRC) == []

    def test_line_suppression_is_per_code(self):
        src = self.SRC.replace("RPL002", "RPL008")
        assert codes(src) == ["RPL002"]

    def test_all_keyword(self):
        src = self.SRC.replace("disable=RPL002", "disable=all")
        assert codes(src) == []

    def test_file_wide_suppression(self):
        src = ("# reprolint: disable-file=RPL002\n"
               "def a(comm):\n"
               "    comm.barrier(send_buf([1]))\n"
               "def b(comm):\n"
               "    comm.barrier(send_buf([2]))\n")
        assert codes(src) == []

    def test_marker_inside_string_is_not_a_suppression(self):
        src = ('MSG = "# reprolint: disable=RPL002"\n'
               "def main(comm):\n"
               "    comm.barrier(send_buf([1]))\n")
        assert codes(src) == ["RPL002"]

    def test_collect_parses_comma_list(self):
        sup = collect_suppressions(
            "x = 1  # reprolint: disable=RPL001, RPL005\n")
        assert sup.is_suppressed("RPL001", 1)
        assert sup.is_suppressed("RPL005", 1)
        assert not sup.is_suppressed("RPL002", 1)
        assert not sup.is_suppressed("RPL001", 2)


class TestDriver:
    def test_syntax_error_is_rpl000(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert [f.code for f in findings] == ["RPL000"]
        assert findings[0].path == "x.py"

    def test_no_spmd_flag_skips_layer2(self):
        src = ("def main(comm):\n"
               "    if comm.rank == 0:\n"
               "        comm.barrier()\n")
        assert codes(src) == ["RPL101"]
        assert codes(src, spmd=False) == []

    def test_findings_are_sorted_by_location(self):
        src = ("def main(comm):\n"
               "    comm.barrier(send_buf([2]))\n"
               "    comm.gather(root(0))\n")
        findings = lint_source(src)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_lint_paths_recurses_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(
            "def main(comm):\n    comm.gather(root(0))\n")
        findings = lint_paths([tmp_path])
        assert [f.code for f in findings] == ["RPL001"]


class TestConservatism:
    """Constructs the linter must stay silent on."""

    def test_unknown_argument_disables_missing_check(self):
        src = ("def main(comm, params):\n"
               "    comm.gather(*params)\n")
        assert codes(src) == []

    def test_raw_receiver_is_never_linted(self):
        src = ("def main(raw):\n"
               "    raw.send([1], 0, 9)\n"
               "    raw.barrier()\n")
        assert codes(src) == []

    def test_ambiguous_short_name_needs_comm_evidence(self):
        src = ("def main(sock):\n"
               "    sock.send(b'x')\n")
        assert codes(src) == []

    @pytest.mark.parametrize("call", [
        "ring.neighbor_alltoall([np.full(r + 1, r)])",
        "ring.neighbor_alltoallv(a, [r + 1], [(r - 1) % p + 1])",
        "c.alltoallv([1], [1], [1])",
        "g.gatherv(x, [1])",
        "s.scatterv(x, [1])",
    ])
    def test_raw_layer_method_names_need_comm_evidence(self, call):
        """The raw layer has these methods too, with positional arguments."""
        assert codes(f"{call}\n") == []

    @pytest.mark.parametrize("call, expected", [
        ("comm.alltoallv([1], [1], [1])", ["RPL008"] * 3),
        ("world.allgatherv(send_buf(v), send_buf(v))", ["RPL003"]),
    ])
    def test_shared_names_with_comm_evidence_are_linted(self, call, expected):
        assert codes(f"{call}\n") == expected

    def test_comm_escape_disables_spmd(self):
        src = ("def main(comm):\n"
               "    if comm.rank == 0:\n"
               "        helper(comm)\n"
               "    comm.barrier()\n")
        assert codes(src) == []

    def test_undecidable_branch_with_equal_comm_is_fine(self):
        src = ("def main(comm, flag):\n"
               "    if flag:\n"
               "        comm.barrier()\n"
               "    else:\n"
               "        comm.barrier()\n")
        assert codes(src) == []

    def test_data_dependent_loop_gives_up_not_reports(self):
        src = ("def main(comm, items):\n"
               "    for _ in items:\n"
               "        if comm.rank == 0:\n"
               "            comm.barrier()\n")
        # rank-dependent comm inside an unknown-trip loop: GiveUp, silent
        assert codes(src) == []


class TestCLI:
    def test_exit_zero_on_clean(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("def main(comm):\n    comm.barrier()\n")
        assert cli_main([str(target)]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_one_and_renders_findings(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def main(comm):\n    comm.gather(root(0))\n")
        assert cli_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "bad.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("def main(comm):\n    comm.gather(root(0))\n")
        assert cli_main(["--format", "json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "RPL001"
        assert payload[0]["line"] == 2

    def test_list_codes(self, capsys):
        assert cli_main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL104" in out

    def test_no_paths_is_usage_error(self, capsys):
        assert cli_main([]) == 2


class TestFixture:
    def test_lint_clean_fixture_passes_on_clean_source(self, lint_clean):
        lint_clean("def main(comm):\n    comm.barrier()\n")

    def test_lint_clean_fixture_raises_with_findings(self, lint_clean):
        with pytest.raises(AssertionError, match="RPL001"):
            lint_clean("def main(comm):\n    comm.gather(root(0))\n")


class TestDerivedTables:
    """The tables the linter reads off the runtime, written out once."""

    def test_factory_params(self):
        assert FACTORY_PARAMS == {
            "send_buf": ("send_buf", "in"),
            "send_buf_out": ("send_buf", "inout"),
            "recv_buf": ("recv_buf", "out"),
            "send_recv_buf": ("send_recv_buf", "inout"),
            "send_counts": ("send_counts", "in"),
            "send_counts_out": ("send_counts", "out"),
            "recv_counts": ("recv_counts", "in"),
            "recv_counts_out": ("recv_counts", "out"),
            "send_displs": ("send_displs", "in"),
            "send_displs_out": ("send_displs", "out"),
            "recv_displs": ("recv_displs", "in"),
            "recv_displs_out": ("recv_displs", "out"),
            "send_count": ("send_count", "in"),
            "recv_count": ("recv_count", "in"),
            "recv_count_out": ("recv_count", "out"),
            "send_recv_count": ("send_recv_count", "in"),
            "op": ("op", "in"),
            "root": ("root", "in"),
            "destination": ("destination", "in"),
            "source": ("source", "in"),
            "tag": ("tag", "in"),
            "values_on_rank_0": ("values_on_rank_0", "in"),
            "status_out": ("status", "out"),
        }

    def test_method_specs(self):
        operations = [
            "send", "ssend", "isend", "issend", "recv", "irecv", "barrier",
            "bcast", "gather", "gatherv", "scatter", "scatterv", "allgather",
            "allgatherv", "alltoall", "alltoallv", "neighbor_alltoall",
            "neighbor_alltoallv", "reduce", "allreduce", "scan", "exscan"]
        assert METHOD_SPECS == {name: name for name in operations} | {
            "bcast_single": "bcast",
            "reduce_single": "reduce",
            "allreduce_single": "allreduce",
            "scan_single": "scan",
            "exscan_single": "exscan",
            "ibcast": "bcast",
            "iallreduce": "allreduce",
            "iallgather": "allgather",
            "probe": "recv",
        }
