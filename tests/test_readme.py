"""The README's library quick start runs as written."""

from readme_blocks import readme_blocks


def test_readme_quick_start_runs(capsys):
    (quick_start,) = readme_blocks("python")
    namespace = {}
    exec(compile(quick_start, "README.md", "exec"), namespace)
    assert namespace["level"].kappa_min > 0.0  # "strictly positive"
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == namespace["level"].kappa_min
    assert len(lines) == 9  # kappa_min, then one line per check
    assert all(" pass " in line for line in lines[1:])
