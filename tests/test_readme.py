"""The README's examples run and give the values it shows."""

import re
from pathlib import Path

import pytest

from spheretail import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def code_block(language, after):
    """The first ``language`` code block of the README below the text ``after``."""
    block = re.compile(rf"```{language}\n(.*?)```", re.S).search(README, README.index(after))
    return block.group(1)


@pytest.mark.parametrize("command", ["approx", "error", "simulate"])
def test_config_example_runs(tmp_path, capsys, command):
    cfg = tmp_path / "exp.json"
    cfg.write_text(code_block("json", "Experiment configs are JSON:"), encoding="utf-8")
    out = tmp_path / f"{command}.csv"
    assert cli.run([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} (15 rows)\n"


def test_library_example_values():
    source = code_block("python", "## Library")
    namespace = {}
    exec(source, namespace)
    # a call followed by a comment that starts with its value, as shown
    # (rounded) or exact: "p_tube(config, law, 6.0)       # 0.00285..."
    shown = re.findall(r"^(\w+\(.*\))\s+# (\d+\.(\d+))", source, re.M)
    assert [call.split("(")[0] for call, _, _ in shown] == [
        "p_tube", "p_exact", "delta_exact", "delta_rv_limit", "delta_bar",
    ]
    for call, digits, decimals in shown:
        value = eval(call, namespace)
        assert round(value, len(decimals)) == float(digits), call
