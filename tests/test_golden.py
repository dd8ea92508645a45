"""Output bytes pinned on one numpy build and one SIMD target.

Criterion 8 and the CLI rerun tests compare two runs of one build.  This
file compares the build under test with the one that wrote the constants
below: a sha256 per command of a fixed command list, run in-process, and
the ``float.hex`` of one ``collect_rows`` + ``fit_link`` group.  The list is
written here rather than parsed from the README, so README edits do not
move it, and the sizes are small so the whole file runs in well under 2 s.

A digest moves when any output byte moves, for example when a command
draws from another ``(seed, stream_id)`` substream.  It also moves with the
platform: numpy's AVX-512 loops round some transcendental results
differently from its AVX2 and baseline loops (``platform_key``).  So the
digests are keyed by the fingerprint (numpy version, machine, AVX-512 loops
live), and a platform with no constant set fails with a message naming it.
"""
import hashlib

import pytest

from levylink import cli
from levylink.link_fit import collect_rows, fit_link
from levylink.sde_sim import GridSpec, ModelKind
from levylink.streams import RngStream
from platform_key import fingerprint

LINK_ROWS = """\
lambda,mu,alpha,t,x
1,0.25,1,0.06055,0.4198
1,1,1.75,0.003906,-0.1551
1,100,0.75,0.03125,18.82
10,0.25,0.5,0.02148,0.4561
1000,0.25,1.75,0.001952,0.0374
"""

RNG = ["rng", "--n", "40", "--seed", "5"]
# Sizes that straddle the draw blocks: sample_n draws at most 2**14 variates
# per block, and self_similarity_check at most 2**14 increments per block of
# whole paths (one path when n_steps is longer).
RNG_BLOCKS = ["rng", "--n", str(3 * 2**14 + 5), "--seed", "5"]

# name -> (argv, sha256 over stdout and every file the command leaves)
GOLDEN = {
    "simulate-ou": (
        ["simulate", "--model", "ou", "--alpha", "1.5", "--lambda", "1.0", "--mu", "0.5",
         "--t-end", "1.0", "--steps", "64", "--paths", "3", "--seed", "42",
         "--out", "ou.csv", "--svg", "ou.svg"],
        "40cc9e1fa9078eb0bff07de49e6d4dfefba089d3d63b7a07924a98a521194261",
    ),
    "simulate-glm": (
        ["simulate", "--model", "glm", "--alpha", "1.25", "--lambda", "0.5", "--mu", "0.3",
         "--x0", "2.0", "--t-end", "1.0", "--steps", "64", "--paths", "2", "--seed", "9",
         "--out", "glm.csv", "--svg", "glm.svg"],
        "6923ac9593216685f57116c1fe793a8a876c28d93f3ae1033840056f027fe8c0",
    ),
    "sweep": (
        ["sweep", "--model", "ou", "--alphas", "0.5,1.5", "--lambdas", "1.0", "--mus", "1.0",
         "--t-end", "1.0", "--steps", "32", "--paths", "2", "--seed", "7",
         "--outdir", "sweep_out", "--svg"],
        "978cb475a47291f907cae6e18f12b995051e0177bb6f0e8eaa0dce927a5e9db8",
    ),
    "fit-link": (
        ["fit-link", "--input", "link_rows.csv", "--out", "link_report.json"],
        "6142901b1d38a0568462a728182e4970bc069018a2fbcf92affe1955ef615047",
    ),
    "rng-gaussian": (
        RNG + ["--alpha", "2", "--gamma", "0.5", "--delta", "1"],
        "cf11b13c33a131fc38c421a23a17f187568980f878379f23b82baea42e28f299",
    ),
    "rng-cauchy": (
        RNG + ["--alpha", "1", "--gamma", "2"],
        "b0ce8059cf8d67a5923ce33feedf5c2783d59f7c66f415743e0e96bf293d3d7f",
    ),
    "rng-levy": (
        RNG + ["--alpha", "0.5", "--beta", "1"],
        "8972f055033a03e3defbb842e2222b4b5fd638092e587963a11c660ac08d3ac2",
    ),
    "rng-symmetric": (
        RNG + ["--alpha", "1.3"],
        "b10ef8ff2f5caf58a27ccaccf32331e195cce253ac83c298451f645c035f1214",
    ),
    "rng-skewed": (
        RNG + ["--alpha", "1.3", "--beta", "0.5", "--delta", "-1"],
        "cb311e2689c951f22f5b489c611a94568886c30f44fc75eadc51b47b19e64f89",
    ),
    "rng-unit-index": (
        RNG + ["--alpha", "1", "--beta", "-0.5", "--gamma", "3"],
        "cc1c6408162b6c2d3e1f71c903fc1f8d4b438f7de9a2eceb3d4491a328974bb3",
    ),
    "selfsim": (
        ["selfsim", "--alpha", "1.5", "--c", "2", "--paths", "300", "--steps", "16",
         "--seed", "3"],
        "b22b1163d42225236688d61e24bb738e8286cc8407455e19f7695364ca7516e4",
    ),
    "rng-symmetric-blocks": (
        RNG_BLOCKS + ["--alpha", "1.3"],
        "36b7c6b076ce15f6e65c571377358d066c18dfa78b5a07109b73ae39c965034f",
    ),
    "rng-skewed-blocks": (
        RNG_BLOCKS + ["--alpha", "0.7", "--beta", "-0.4"],
        "b0496f0e83c7e8b189da5b9a54540a44c76006feca037f38a886110fbc9b2aa2",
    ),
    "rng-cauchy-blocks": (
        RNG_BLOCKS + ["--alpha", "1"],
        "fde324b3a72a088747bfe74d11709509ac6bbdc527bb41a7c31498ed5f112bf6",
    ),
    "rng-gaussian-blocks": (
        RNG_BLOCKS + ["--alpha", "2"],
        "775865da3f7791ba4006ebd8ec011e29a7bd83e6e98c32cd8c839d3eb44f3004",
    ),
    "rng-levy-blocks": (
        RNG_BLOCKS + ["--alpha", "0.5", "--beta", "1"],
        "606ad32d26508a4d159f5187217818e9e2c6ad1441833449e385436afe184cef",
    ),
    "rng-unit-index-blocks": (
        RNG_BLOCKS + ["--alpha", "1", "--beta", "0.5"],
        "fc4a9f1569aad82d0dcd8ea9732e994cd7603b0c31808a282c6b1c9de0a6dbff",
    ),
    # 4,099 paths of 16 steps: 1,024 paths per block, so four whole blocks and 3 paths.
    "selfsim-path-blocks": (
        ["selfsim", "--alpha", "1.5", "--c", "2", "--paths", "4099", "--steps", "16",
         "--seed", "3"],
        "1b4fc097b11da3ed28fbc781539a6e0cad0cf31b50ee45a7963a4aa00cb9ba35",
    ),
    # 16,390 steps per path, more than one sample_n block; one path per block.
    "selfsim-long-steps": (
        ["selfsim", "--alpha", "1.2", "--c", "3", "--paths", "25", "--steps", "16390",
         "--seed", "4"],
        "1ab7d4be94ca59c0219e174a6d29521446955dd1a4c22bbca883c486b550e100",
    ),
}

# The digests above are numpy 2.4.6's on x86-64 with its AVX-512 loops live.
# Its AVX2 and baseline loops give the same bytes as each other, and these
# seven digests differ; the collect_rows + fit_link floats below agree.
AVX512_DIGESTS = {name: digest for name, (_, digest) in GOLDEN.items()}
DIGESTS = {
    ("2.4.6", "x86_64", True): AVX512_DIGESTS,
    ("2.4.6", "x86_64", False): {
        **AVX512_DIGESTS,
        "sweep": "fccc998ca64bf6a6b23a3957d2ea9eb885142f352af19f58167970052a310238",
        "rng-symmetric": "bebc8964fb9531c299c7064bf8dc3132d57089ec0bb5834db8dc0941ed99af34",
        "rng-skewed": "1cde616c9bb55602886cb3d355a38b6bf38fcd6ed480dab3de6b041ef4278fe7",
        "rng-symmetric-blocks": "b634e18f39c80db3fd3a0adaf25436cac70c1053ad2fe3121acc608e054a48fd",
        "rng-skewed-blocks": "460a926adc9c307174ecedb683f7ed94db499ebf282217a3be6589de5f350d82",
        "rng-cauchy-blocks": "fb4851c49ed06633d153476a39c9c535647e5aa303c23596825a9c09fe73342f",
        "rng-unit-index-blocks":
            "6fddf54cc1b6ff257e3594dd1edc408e4e05895e7c6342e4b264a149fb8b08a6",
    },
}

# collect_rows over five OU triples, then fit_link: each float as float.hex.
LINK_TRIPLES = [
    (1.0, 0.25, 1.0), (1.0, 1.0, 1.75), (1.0, 2.0, 0.75), (3.0, 0.25, 0.5), (5.0, 0.5, 1.25),
]
GOLDEN_LINK = {
    "rows": [
        ["0x1.9000000000000p-2", "0x1.9a584a2a630eap-1"],
        ["0x1.b000000000000p-2", "0x1.e8f8d83a46416p-1"],
        ["0x1.8000000000000p-6", "0x1.4402d95a5a8dfp+0"],
        ["0x1.0000000000000p-6", "0x1.e738ad228766cp-2"],
        ["0x1.8000000000000p-3", "0x1.2da932b6ee026p-1"],
    ],
    "coefficients": [
        "0x1.16b5b7f186617p-7",
        "0x1.032e057ac131cp-1",
        "-0x1.7020461921dd8p-2",
        "0x1.64a243d3f007ap+0",
        "0x1.ed469ff5d4230p-2",
    ],
    "t_bar": "0x1.a99999999999ap-3",
    "x_bar": "0x1.a285ac79e9a06p-1",
    "rhs": "0x1.7a8851ae96550p-5",
}


def pinned_digests():
    """The command digests of this platform; a failure naming it when none are pinned."""
    key = fingerprint()
    if key not in DIGESTS:
        pytest.fail(
            f"no golden constants for the platform {key!r} (numpy version, machine, "
            "AVX-512 loops live): compute a set on it and add it to DIGESTS"
        )
    return DIGESTS[key]


def moved(what, got, want):
    return (
        f"{what}: got {got!r}, pinned {want!r} (platform {fingerprint()!r}). If the "
        "(seed, stream_id) schedule changed on purpose, update the constant and "
        "say so in CHANGES.md; otherwise the change altered output bytes."
    )


def output_digest(tmp_path, stdout):
    """sha256 over stdout, then each file's relative path and sha256, in path order."""
    h = hashlib.sha256(hashlib.sha256(stdout.encode()).digest())
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        h.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_command_output_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    argv, want = GOLDEN[name][0], pinned_digests()[name]
    (tmp_path / "link_rows.csv").write_text(LINK_ROWS)
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    got = output_digest(tmp_path, out)
    assert got == want, moved(name, got, want)


def test_link_group_floats_are_pinned():
    pinned_digests()  # the same floats on every known platform; none elsewhere
    result = collect_rows(
        LINK_TRIPLES, ModelKind.OU, GridSpec(t_end=1.0, n_steps=128), 10.0, RngStream(11)
    )
    link = fit_link(result.rows)
    got = {
        "rows": [[r.t.hex(), r.x.hex()] for r in result.rows],
        "coefficients": [b.hex() for b in link.coefficients],
        "t_bar": link.t_bar.hex(),
        "x_bar": link.x_bar.hex(),
        "rhs": link.rhs.hex(),
    }
    assert result.excluded == []
    assert got == GOLDEN_LINK, moved("collect_rows + fit_link", got, GOLDEN_LINK)
