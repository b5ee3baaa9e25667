"""Golden output: sha256 of the CSV and of stdout for tiny runs of every command.

The hashes pin the exact bytes the CLI writes, so any refactor of the
solver, learner, simulator or writer that changes a single byte of output
fails here. Each case runs in its own temporary directory with a relative
``--out`` path, so the path echoed on stdout is the same on every machine.
"""

import hashlib

import pytest

from crn_jamgame.cli import main

CROWDED = ["--n-bands", "32", "--n-primary", "24", "--cost-malicious-switch", "0.5"]

CASES = {
    "simulate-fp-seed1": ["simulate", "--slots", "2000", "--seed", "1"],
    "simulate-fp-seed2": ["simulate", "--slots", "2000", "--seed", "2"],
    "simulate-nash-crowded-seed1": [
        "simulate", "--slots", "2000", "--seed", "1", *CROWDED,
        "--policy-secondary", "nash", "--policy-malicious", "nash",
    ],
    "simulate-nash-crowded-seed2": [
        "simulate", "--slots", "2000", "--seed", "2", *CROWDED,
        "--policy-secondary", "nash", "--policy-malicious", "nash",
    ],
    "simulate-fixed-seed1": [
        "simulate", "--slots", "2000", "--seed", "1",
        "--policy-secondary", "fixed:0.3", "--policy-malicious", "fixed:0.7",
    ],
    "simulate-fixed-seed2": [
        "simulate", "--slots", "2000", "--seed", "2",
        "--policy-secondary", "fixed:0.3", "--policy-malicious", "fixed:0.7",
    ],
    "simulate-two-bands-seed1": [
        "simulate", "--slots", "2000", "--seed", "1", "--n-bands", "2", "--n-primary", "0",
    ],
    "simulate-two-bands-seed2": [
        "simulate", "--slots", "2000", "--seed", "2", "--n-bands", "2", "--n-primary", "0",
    ],
    "simulate-saturated-seed1": ["simulate", "--slots", "2000", "--seed", "1", "--n-primary", "10"],
    "simulate-saturated-seed2": ["simulate", "--slots", "2000", "--seed", "2", "--n-primary", "10"],
    "fp-A": ["fp", "--iterations", "2000", "--category", "A"],
    "fp-B": ["fp", "--iterations", "2000", "--category", "B"],
    "nash": ["nash"],
    # both games degenerate, pure sets 2-2 and 2-1: the nan residual cells
    "nash-degenerate": [
        "nash", "--gain-secondary", "0", "--gain-malicious", "0", "--loss-secondary", "0",
    ],
    # A degenerate with pure set 1-2, B mixed; fp then writes nan err_p and err_q
    "nash-out-of-range": ["nash", "--cost-malicious-switch", "20"],
    "fp-degenerate": ["fp", "--iterations", "2000", "--category", "A", "--cost-malicious-switch", "20"],
    "sweep-3x3": [
        "sweep", "--sweep", "n_primary=3..5", "--sweep", "gain_malicious=50..100:25",
    ],
    # lengths that cross the CSV writer's row chunks and end mid-chunk
    "fp-A-5003": ["fp", "--iterations", "5003", "--category", "A"],
    "fp-B-5003": ["fp", "--iterations", "5003", "--category", "B"],
    "simulate-fp-5003": ["simulate", "--slots", "5003", "--seed", "3"],
    "simulate-nash-crowded-5003": [
        "simulate", "--slots", "5003", "--seed", "3", *CROWDED,
        "--policy-secondary", "nash", "--policy-malicious", "nash",
    ],
    "sweep-fp-2x3": [
        "sweep", "--sweep", "n_primary=3..4", "--sweep", "gain_malicious=50..100:25",
        "--iterations", "300",
    ],
    # zero costs and gains, n_primary = n_bands and nan cells: 108 of the
    # 216 games are degenerate, so every fallback branch of the solver runs
    "sweep-degenerate": [
        "sweep", "--n-bands", "3", "--n-primary", "0", "--sweep", "n_primary=0..3",
        "--sweep", "cost_secondary_switch=0..10:5", "--sweep", "cost_malicious_switch=0..4:2",
        "--sweep", "gain_malicious=0..150:75",
    ],
    # the benchmark's workloads (bench/run_bench.py) at seed 1: only at
    # these sizes do float cells fall on a rounding tie of the sixth digit
    "bench-fp-long": ["fp", "--category", "A", "--iterations", "300000", "--seed", "1"],
    "bench-sim-learn": ["simulate", "--slots", "60000", "--seed", "1"],
    "bench-sim-crowded": [
        "simulate", "--slots", "40000", "--policy-secondary", "nash", "--policy-malicious", "nash",
        *CROWDED, "--seed", "1",
    ],
    "bench-sweep-grid": [
        "sweep", "--sweep", "n_primary=0..9", "--sweep", "gain_malicious=5..400:5",
        "--sweep", "loss_secondary=5..400:10", "--seed", "1",
    ],
    # switching costs that push p or q out of [0, 1]: 30 of the 120 games
    # take that degenerate branch, 30 have an indifference denominator of zero
    "sweep-out-of-range": [
        "sweep", "--sweep", "cost_malicious_switch=0..20:5", "--sweep", "gain_malicious=0..150:50",
        "--sweep", "cost_secondary_switch=0..60:30",
    ],
}

# (sha256 of the CSV, sha256 of stdout), recorded from the reference implementation.
GOLDEN = {
    "fp-A": (
        "65c2e56d2c0ade454317f42094ccc052bf0279ea2c569da508b93510d843fe30",
        "bd9ba0e7446f2f381d5f71a227c33a092f4acb1fb7082bae1bf5013e377ecacf",
    ),
    "fp-B": (
        "7fef7d5e7f558a7ffa730947f3f311800d85fc2344ace07014ac90ffd128d3a9",
        "7a944729979fd8ca737da25c4e27fccff29d504699a8226daf37c91abab4e65d",
    ),
    "nash": (
        "8c61915e5e27d2ec284a007bcb74ed692aefcddbb3ab03ae1c36bb824e2f76dc",
        "5f10a2b7ed0190ef294d78811a58da3eb37d8b56fa62140bad5cb0e1ccd9a26f",
    ),
    "nash-degenerate": (
        "5704265d117ce330e116bd7f9f0db5df3309994093ff796afe138c0a6dc4088a",
        "77c2ef57afcb66382028888f5e3786584b8ff348676c0b5333115b6fded593ab",
    ),
    "nash-out-of-range": (
        "39cf18947767843ea612ea08cc5f88cd7c7180f3896dfe20a22b35cdd8343264",
        "18ef0a91c0151ac6ab6ee483bb3dbecf0d10510f5a453935801c9b4660b1c436",
    ),
    "fp-degenerate": (
        "aa66ec04e8f94d860944ff389467dc6619e13379b0b48d3d632073ff314798be",
        "1034d2805fe41b60f96fac0f0a8b885d3ef6c9aae02b9ca9d2feacb223dfdfff",
    ),
    "simulate-fixed-seed1": (
        "71443bc0bb6e7a1da144ea8785e3f5c6388dfcffa5c9d673b1fcd5aee8770b8d",
        "d206ac35f80ace488f532e53628266025d6f2d9319715dc39deaf9537c307012",
    ),
    "simulate-fixed-seed2": (
        "21d9055c5d9e6f5ec372ccb16f1943ad662647f6617accc6df96f8b7053c47b5",
        "a99e0eab1d0b54f2c2b0c315b0f746c6e28b7ad09747af4c8bc1beaa17d597d7",
    ),
    "simulate-fp-seed1": (
        "e3416541c88e093559bf7411124675f480abf06594351cccec7ad22af0b99e99",
        "0072da3beea064efb498046440248219196abfcbccc7056d6211d8ee2adc62d2",
    ),
    "simulate-fp-seed2": (
        "6d3e08b24867eef70b06ede50e32f977f2cf408bd113e5d815656e43fd310a7c",
        "723dcca488ab53f376666871799b6e854f1a5bc5a24435e169dcc9e4477fd05f",
    ),
    "simulate-nash-crowded-seed1": (
        "175689e8f9a76f1d97e07dd23cba9e9952c06f729c370f0e60e46326b2a657a2",
        "c0d9a5eb8159f3b0722e3e3b04231d1737b618247f290eca100d77f6df171429",
    ),
    "simulate-nash-crowded-seed2": (
        "6d47682e9759e4798580c322440d909fb7a44facf0808197ac7d44e6f9a15520",
        "21e42e56f60349f97d43b41e0c0204eecf403b97e6a2a94a49f3d9a4cf77a8c3",
    ),
    "simulate-saturated-seed1": (
        "fdf4709b88554e37048ad204f7ec2236cc0bd8399676b2f330937bcca5c7a156",
        "4624a503e3ebb4f1c3f60f357732eac527f85836f50d753ec1b9031c118c66e0",
    ),
    "simulate-saturated-seed2": (
        "6092d5e62fae4d7b68890c33d54c4b7a8d43c7d4f3838f70d8a47b7c9fb47b8b",
        "4624a503e3ebb4f1c3f60f357732eac527f85836f50d753ec1b9031c118c66e0",
    ),
    "simulate-two-bands-seed1": (
        "c5104cd3e5088b17b124078584033219d2aa9bbfb78892a902969f7db8d24e27",
        "eb209f255fea2735180d97725b233797743c654f98d878ae82aa253e54ee23a5",
    ),
    "simulate-two-bands-seed2": (
        "e76506df6646ed80884bbe18743abfa3e46f6d83fb235462c62ddc0996a8fa54",
        "49cdc5e4f6c89259447608807d2b0b088f5ba071b43c15cb5e213ee63001795d",
    ),
    "sweep-3x3": (
        "c5dcb4f3f1a8d52fa2e0bc21a2580668442fa7c02b984566d55dd36345a06c3c",
        "06a613ca64bb1552def14a52de94e754ac5462958f64de33e002505942d6fa77",
    ),
    "fp-A-5003": (
        "bd2450fd2aeaabaae6b58e21eac5ef5236e60d3461191454cd27404c19ddb345",
        "e7ee137fd8f8b758765f51ecd012a4bfcb95e7cf12badf8cbb2976ac32002d70",
    ),
    "fp-B-5003": (
        "8a32a3bfc1ddd1b712085be2e44c8c767fd3493587af231388f4c9ba3b61d507",
        "5b257d559c7f3ed8b59a2632314ab78ea1281df2bbba4a5863767c87c8810f4a",
    ),
    "simulate-fp-5003": (
        "ca32c3fdeb664db2a93c80ece8b98ecb5bf0cd02bcc2c98dddc211be76255553",
        "1728ad306a37be722fafa09bbcb65ff399e164230fc319e3a039733ec3fc0a40",
    ),
    "simulate-nash-crowded-5003": (
        "556efe741601bf41dd7f8549888b4645bb94c04072bd9cab61cfe86e747b46f1",
        "fe3c40630f0608e7148ac6ec001cf0f71dda3ef65ad79626fd6a616852b601a9",
    ),
    "sweep-fp-2x3": (
        "ff3febba85e1ee121f314e6aa96329ee45425b291a77889140e9fcb315806eeb",
        "05e23d6fac70c6d5a250a3cda54a3dc5e6aa6fd4327f40a4656620511264b791",
    ),
    "sweep-degenerate": (
        "4cdebebd0a2969d1fe6b720a3eef5228693843da9c6cf519c0af7b6f05b0db21",
        "2d13b916e7cc758cb828f8d17f69ce96de3efe3901c13f653a614568d6c759af",
    ),
    "sweep-out-of-range": (
        "e3810c4a9d8626802c5f722adca018050b4b33241676b206147387a619d91774",
        "ee574b0b5c14d8c43778b638f82fb31e6e07a7642e63b433aa53c42675f95101",
    ),
    "bench-fp-long": (
        "d63d4d42809f908e606e899b34c0997b58297ed1ffcfe54871d9c2ef739a9366",
        "02d5c9dc002ea946f5263a014bcc22cf6256c2b2da8185da345d4ad6e2933c76",
    ),
    "bench-sim-learn": (
        "c1948d8c35072aea8a66e38bd30c4acf0e436780c23acd4cf6ee9208f43afc00",
        "d048b75159e12f7802efac2a2db7217457e42845fa7e7a9708768817221d695d",
    ),
    "bench-sim-crowded": (
        "18ae5312192d050029245874e580ddf52c5a0b564bdae499accb7c3a50e98fa4",
        "37cba0e1c153f8e0d2783408e56ad0de49df47e2e4de90460ff5f04629e96342",
    ),
    "bench-sweep-grid": (
        "a592af8e68ac503de061616d2a7af652508c9c876d6522a76b9a2d875d3b3808",
        "26e9f294dbac0539a7e085b4051b77294bbf58d6576a9e2d71d6e1fa262db135",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(CASES[name] + ["--out", "out.csv"]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    csv = (tmp_path / "out.csv").read_bytes()
    assert (sha256(csv), sha256(stdout)) == GOLDEN[name]


@pytest.mark.parametrize("chunk", [1, 7, 5003])
@pytest.mark.parametrize("name", ["fp-B-5003", "fp-degenerate", "simulate-fp-5003", "sweep-fp-2x3"])
def test_row_chunk_size_changes_no_byte(name, chunk, tmp_path, monkeypatch, capsys):
    import crn_jamgame.cli as cli

    monkeypatch.setattr(cli, "_CHUNK", chunk)
    monkeypatch.chdir(tmp_path)
    assert main(CASES[name] + ["--out", "out.csv"]) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    csv = (tmp_path / "out.csv").read_bytes()
    assert (sha256(csv), sha256(stdout)) == GOLDEN[name]
