import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartic_moments.cache import (
    CacheCorruptError,
    _body,
    cache_roundtrip,
    read_lvalue_cache,
    write_lvalue_cache,
)
from quartic_moments.cli import dispatch
from quartic_moments.lfunctions import LValueRecord
from quartic_moments.moments import moment_family, moment_records
from quartic_moments.weights import bump_weight


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "quartic_moments.cli", *args],
        capture_output=True,
        text=True,
    )


def test_symbol_subcommand():
    out = run_cli(["symbol", "--num", "2", "--den=-1-2i"])
    assert out.returncode == 0
    assert out.stdout.strip() == "i"
    out = run_cli(["symbol", "--num", "2", "--den=-1-2i", "--fast"])
    assert out.stdout.strip() == "i"


def test_unknown_subcommand_exits_2():
    out = run_cli(["frobnicate"])
    assert out.returncode == 2
    assert "usage" in out.stderr.lower()
    assert dispatch(["frobnicate"]) == 2


def test_enumerate_csv():
    out = run_cli(["enumerate", "--max-q", "5"])
    assert out.stdout.splitlines() == ["q,a,b", "5,-1,-2", "5,-1,2"]
    out = run_cli(["enumerate", "--max-q", "30", "--count-only"])
    payload = json.loads(out.stdout)
    assert payload["count"] == 8


def test_gauss_sum_json():
    out = run_cli(["gauss-sum", "--mod=-1-2i"])
    payload = json.loads(out.stdout)
    assert abs(payload["re"] ** 2 + payload["im"] ** 2 - 5) < 1e-9
    assert "config" in payload


def test_lvalue_json_and_methods():
    afe = json.loads(run_cli(["lvalue", "--q", "5", "--a", "-1", "--b", "-2"]).stdout)
    direct = json.loads(
        run_cli(["lvalue", "--q", "5", "--a", "-1", "--b", "-2", "--method", "direct"]).stdout
    )
    assert abs(complex(afe["re"], afe["im"]) - complex(direct["re"], direct["im"])) < 1e-6
    bad = run_cli(["lvalue", "--q", "13", "--a", "-1", "--b", "-2"])
    assert bad.returncode == 2
    # invalid AFE settings are usage errors, not replaced by the defaults
    for flag in (["--truncation-eps", "0"], ["--split-a", "0"]):
        assert dispatch(["lvalue", "--q", "5", "--a", "-1", "--b", "-2", *flag]) == 2
    # --alpha is re or re,im: a third part is a usage error with a JSON message
    bad = run_cli(["lvalue", "--q", "5", "--a", "-1", "--b", "-2", "--alpha", "1,2,3"])
    assert bad.returncode == 2 and json.loads(bad.stderr)["kind"] == "ValueError"
    shifted = ["lvalue", "--q", "5", "--a", "-1", "--b", "-2", "--method", "direct"]
    assert dispatch([*shifted, "--alpha", "0.1"]) == dispatch([*shifted, "--alpha", "0.1,2"]) == 0


LVALUE5 = ["lvalue", "--q", "5", "--a", "-1", "--b", "-2"]


@pytest.mark.parametrize("argv, named", [
    (["sieve", "--kind", "quartic", "--Q", "64", "--M", "0"], "not 64 and 0"),
    (["sieve", "--kind", "quartic", "--Q", "64", "--M", "-3"], "not 64 and -3"),
    (["sieve", "--kind", "quartic", "--Q", "2", "--M", "8"], "not 2 and 8"),
    ([*LVALUE5, "--alpha", "0,40"], "alpha = 40j"),
    ([*LVALUE5, "--alpha", "nan"], "alpha = (nan+0j)"),
    (["second-moment", "--Q", "100", "--t", "30"], "alpha = 30j"),
    (["second-moment", "--Q", "10", "--t", "nan"], "alpha = nanj"),
    (["second-moment", "--Q", "10", "--t", "inf"], "alpha = infj"),
])
def test_malformed_inputs_exit_2_naming_them(argv, named, capsys):
    # out-of-range inputs are usage errors with a JSON message naming the
    # input, never a traceback, a certification failure or a silent report
    assert dispatch(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    payload = json.loads(out.err)
    assert payload["kind"] == "ValueError" and named in payload["error"]


def test_verify_subcommand_exit_codes(capsys):
    out = run_cli(["verify", "--suite", "reciprocity", "--max-norm", "60"])
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["ok"] is True and payload["failures"] == 0
    # a size flag the suite does not take is a usage error naming what it takes
    for suite, flag in (("afe", "--max-norm"), ("reciprocity", "--max-q"),
                        ("special-functions", "--max-q")):
        capsys.readouterr()
        assert dispatch(["verify", "--suite", suite, flag, "5"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "ValueError" and suite in err["error"]


def test_scripts_print_json_lines():
    # each experiment script at a small size: exit 0, one JSON object a line
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for script, args in (("run_first_moment.py", ["--grid", "100,200"]),
                         ("run_second_moment.py", ["--Q", "100", "--t", "5"]),
                         ("run_sieve_grid.py", ["--grid", "32", "--trials", "2"])):
        out = subprocess.run([sys.executable, str(root / "scripts" / script), *args],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, (script, out.stderr)
        lines = out.stdout.splitlines()
        assert lines and all(isinstance(json.loads(line), dict) for line in lines), script


def test_certification_failure_exits_1():
    # a gaussian-G tail at 1e-30 blows the term budget: certified error, exit 1
    out = run_cli(
        ["lvalue", "--q", "5", "--a", "-1", "--b", "-2",
         "--g-choice", "gaussian", "--truncation-eps", "1e-30"]
    )
    assert out.returncode == 1
    err = json.loads(out.stderr)
    assert err["kind"] == "TruncationError"


def test_moment_json_stability():
    a = run_cli(["moment", "--Q", "60"])
    b = run_cli(["moment", "--Q", "60"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout  # byte-identical reports
    payload = json.loads(a.stdout)
    assert payload["Q"] == 60 and "ratio" in payload


def test_cli_import_skips_scipy_integrate_and_interpolate():
    code = (
        "import sys, quartic_moments.cli; "
        "print([m for m in ('scipy.integrate', 'scipy.interpolate', 'multiprocessing', "
        "'concurrent.futures.process') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "[]"


def test_moment_csv_is_cache_body():
    out = run_cli(["moment", "--Q", "60", "--csv"])
    assert out.returncode == 0
    assert out.stdout == _body(moment_records(moment_family(60, bump_weight())))


def test_sieve_and_second_moment_cli():
    out = run_cli(["sieve", "--kind", "quartic", "--Q", "32", "--M", "32", "--trials", "3"])
    payload = json.loads(out.stdout)
    assert payload["max_ratio"] > 0
    out = run_cli(["second-moment", "--Q", "40"])
    assert json.loads(out.stdout)["total"] > 0
    out = run_cli(["nonvanish", "--Q", "60"])
    assert json.loads(out.stdout)["total"] > 0


# ----------------------------------------------------------------------
# cache file
# ----------------------------------------------------------------------

records = st.lists(
    st.builds(
        LValueRecord,
        q=st.integers(3, 10**6),
        a=st.integers(-1000, 1000),
        b=st.integers(-1000, 1000),
        value=st.builds(
            complex,
            st.floats(-1e3, 1e3, allow_nan=False),
            st.floats(-1e3, 1e3, allow_nan=False),
        ),
        method=st.sampled_from(["afe", "direct"]),
        err_estimate=st.floats(0, 1e-3, allow_nan=False),
    ),
    max_size=60,
    unique_by=lambda r: (r.q, r.a, r.b),
)


@given(records)
@settings(max_examples=40, deadline=None)
def test_cache_roundtrip_bit_exact(recs):
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cache.csv")
        back = cache_roundtrip(recs, path)
        assert back == sorted(recs, key=lambda r: (r.q, r.a, r.b))
        # a second write produces identical bytes
        data1 = open(path, "rb").read()
        write_lvalue_cache(path, list(reversed(recs)))
        data2 = open(path, "rb").read()
        assert data1 == data2


def test_cache_rejects_tampering(tmp_path):
    path = str(tmp_path / "cache.csv")
    recs = [LValueRecord(5, -1, -2, 0.5 + 0.25j, "afe", 1e-9)]
    write_lvalue_cache(path, recs)
    assert read_lvalue_cache(path) == recs
    lines = open(path).read().splitlines()
    lines[2] = lines[2].replace("5,-1,-2", "5,-1,2")
    open(path, "w").write("\n".join(lines) + "\n")
    with pytest.raises(CacheCorruptError):
        read_lvalue_cache(path)
    open(path, "w").write("no checksum here\n")
    with pytest.raises(CacheCorruptError):
        read_lvalue_cache(path)


def test_empty_cache_roundtrips(tmp_path):
    path = str(tmp_path / "empty.csv")
    assert cache_roundtrip([], path) == []


def test_lvalue_cache_flag(tmp_path):
    path = str(tmp_path / "lv.csv")
    out = run_cli(["lvalue", "--q", "5", "--a", "-1", "--b", "-2", "--cache", path])
    assert out.returncode == 0
    recs = read_lvalue_cache(path)
    assert len(recs) == 1 and recs[0].q == 5


def _checksummed(path, rows):
    import hashlib

    body = "q,a,b,re,im,method,err\n" + "".join(r + "\n" for r in rows)
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(f"# sha256={digest}\n{body}")


@pytest.mark.parametrize("row", [
    "5,-1,-2,0.5,0.25,afe",  # six fields
    "5,-1,-2,0.5,0.25,afe,1e-9,extra",  # eight fields
    "5,-1,-2,half,0.25,afe,1e-9",  # a value that is no float
    "5,x,-2,0.5,0.25,afe,1e-9",  # a generator that is no int
])
def test_malformed_cache_row_is_corrupt_not_usage(tmp_path, row):
    path = tmp_path / "lv.csv"
    _checksummed(path, [row])
    with pytest.raises(CacheCorruptError):
        read_lvalue_cache(str(path))
    out = run_cli(["lvalue", "--q", "5", "--a", "-1", "--b", "-2", "--cache", str(path)])
    assert out.returncode == 1
    assert json.loads(out.stderr)["kind"] == "CacheCorruptError"


def test_cache_rewrite_keeps_file_mode(tmp_path):
    import os
    import stat

    recs = [LValueRecord(5, -1, -2, 0.5 + 0.25j, "afe", 1e-9)]
    old = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.csv"
        write_lvalue_cache(str(fresh), recs)
        assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o644  # as `touch` gives
        write_lvalue_cache(str(fresh), recs)
        assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o644
        os.chmod(fresh, 0o640)
        write_lvalue_cache(str(fresh), recs)
        assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o640
        os.umask(0o077)
        private = tmp_path / "private.csv"
        write_lvalue_cache(str(private), recs)
        assert stat.S_IMODE(os.stat(private).st_mode) == 0o600
    finally:
        os.umask(old)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "private.csv"]
