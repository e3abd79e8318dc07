"""Plan-file parsing, its documentation, and the command-line entry points."""

import re
from pathlib import Path

import pytest

from punctstream.cli import main
from punctstream.operators import REGISTRY
from punctstream.planfile import parse_plan
from punctstream.runtime import DeterministicEngine, PlanError

STREAM = (
    "schema sensor(det:int, seg:int, ts:timestamp*, speed:float)\n"
    + "".join(f"{d},{d % 3},{t},{50 + d}.0\n" for t in range(120) for d in range(4))
)

PLAN = """
# average speed per segment, minute windows
schema sensor(det:int, seg:int, ts:timestamp*, speed:float)
node src source schema=sensor file={stream} punct_interval=60
node flt select input=src predicate="speed >= 0"
node avg average input=flt range_seconds=60 group_by=seg value=speed
node out sink input=avg
"""


@pytest.fixture
def stream_file(tmp_path):
    p = tmp_path / "stream.txt"
    p.write_text(STREAM)
    return p


def test_parse_and_run_plan(stream_file):
    plan, schemas = parse_plan(PLAN.format(stream=stream_file))
    assert "sensor" in schemas
    report = DeterministicEngine(plan, REGISTRY).run()
    rows = report.outputs["out"]
    # 2 windows x 3 segments
    assert len(rows) == 6
    assert {r[1] for r in rows} == {0, 1, 2}


def test_parse_rejects_unknown_schema():
    with pytest.raises(PlanError, match="unknown schema"):
        parse_plan("node src source schema=nope")


def test_parse_rejects_bad_line():
    with pytest.raises(PlanError, match="line 1"):
        parse_plan("frobnicate src")


def test_kind_table_matches_the_registry():
    # each row of the kind table in docs/plan-format.md: `kind` [/ `kind`...]
    # | `param...` ...; a parameter is the name that starts a backquoted span
    doc = Path(__file__).resolve().parent.parent / "docs" / "plan-format.md"
    table = {}
    for line in doc.read_text().splitlines():
        cells = re.split(r"(?<!\\)\|", line)
        if len(cells) != 4 or not cells[1].strip().startswith("`"):
            continue
        params = {re.match(r"\w+", span).group() for span in re.findall(r"`([^`]+)`", cells[2])}
        for kind in re.findall(r"`(\w+)`", cells[1]):
            assert kind not in table, f"{kind} has two rows"
            table[kind] = params
    assert table == {kind: set(k.params) for kind, k in REGISTRY.items()}


def test_join_key_pairs():
    text = (
        "schema L(a:int, t:timestamp*, id:int)\n"
        "schema R(rt:timestamp*, id:int, b:int)\n"
    )
    plan, _ = parse_plan(
        text
        + "node l source schema=L\n"
        + "node r source schema=R\n"
        + "node j join input=l,r on=id\n"
        + "node out sink input=j\n"
    )
    assert plan.nodes["j"].params["on"] == (("id", "id"),)


def test_cli_run_outputs_rows(stream_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(PLAN.format(stream=stream_file))
    assert main(["run", str(plan_path)]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6


def test_cli_run_counters(stream_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(PLAN.format(stream=stream_file))
    assert main(["run", str(plan_path), "--counters"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("operator,tuples_in")
    assert "avg" in out


def test_cli_missing_file_is_an_error(capsys):
    assert main(["run", "/no/such/plan.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["zoom", "--scheme", "bogus"])
    assert exc.value.code == 2


def test_cli_check_subcommand(capsys):
    assert main(["check", "--workloads", "5"]) == 0
    assert "5/5" in capsys.readouterr().out
