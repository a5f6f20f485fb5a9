"""Known-answer vectors: the bits every refactor must keep.

The rng constants, the field order and the table dump are part of the file
format (see README), and the CLI reports are the published results of a
run. The values below were recorded once and must never change without a
format version bump. Digests are SHA-256 over little-endian uint64 bytes
(arrays), UTF-8 text (dumps, CLI stdout, probe histograms) or ``repr`` of a
sorted key list (selections, first 16 hex digits).
"""

import hashlib

import numpy as np
import pytest

from tornadotab import cli, experiments, linprobe, rng, selectors
from tornadotab.core import (Hashed, TornadoHash, TornadoSpec, Variant, dump_tables,
                             eval_folded_batch, eval_folded_stack, fold_stacks, parse_spec_string)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(values) -> str:
    return sha256(np.asarray(values, dtype=np.uint64).astype("<u8").tobytes())


class TestRng:
    def test_mix64(self):
        got = [rng.mix64(x) for x in (0, 1, 0xDEADBEEF, rng.M64)]
        assert got == [0xE220A8397B1DCDAF, 0x910A2DEC89025CC1, 0x4ADFB90F68C9EB9B,
                       0xE4D971771B652C20]

    def test_field_value(self):
        got = [rng.field_value(*a) for a in ((0, 0, 0, 0, 0),
                                             (7, rng.KIND_LEVEL, 3, 2, 41),
                                             (0x2026, rng.KIND_TOP, 0, 5, 65535))]
        assert got == [0x6DFE3A838C2563AF, 0xF346C125DD70326C, 0x2F84B2C22C993DE7]

    def test_trial_seed(self):
        got = [rng.trial_seed(*a) for a in ((0, 0), (2026, 1), (rng.M64, 12345))]
        assert got == [0x7ADF333CDDF12CB8, 0x43912EFF9B301E84, 0xBC5644FA66BA2B8A]

    def test_sample_distinct_keys(self):
        assert rng.sample_distinct_keys(5, 8, 10).tolist() == [239, 624, 266, 401, 416, 224,
                                                               623, 448]
        assert array_digest(rng.sample_distinct_keys(2026, 1000, 16)) == (
            "3385b1e2d74bb22c80540e91ef21e96bf03e96884fe3560b61a756caf68399fb")

    # (seed, n, bits) -> digest: 64-bit keys, 48-bit keys on both sides of
    # n + n // 4 = 2^16 values, and 250 of a 256-key universe
    DISTINCT = [
        ((0x64, 1000, 64),
         "76e4300fb39b55632d855d76328c9d92ff539fe3da3f7bed92ed0cee3a011623"),
        ((0x48, 52429, 48),
         "71acf2c571552362ecd8dc6241a4b24de17f078ead1f34026e31b1443937d614"),
        ((0x48, 52430, 48),
         "91501cceab1f2588f4cf569f77fb0f67b94959160c78322c6afd5ebef1760798"),
        ((7, 250, 8),
         "b6bf74437998a7794446a5771ae6ca552ba6ac3cc12b9bd86eef2686234e30b4"),
    ]

    @pytest.mark.parametrize("args,digest", DISTINCT, ids=["bits64", "bits48_packed",
                                                           "bits48_over", "dense"])
    def test_sample_distinct_keys_edges(self, args, digest):
        assert array_digest(rng.sample_distinct_keys(*args)) == digest


# spec -> (dump_tables digest, eval_batch digest over 5000 raw_key_stream keys),
# both under seed 0x5EED
TABLES = {
    "simpletab,cb=8,c=4,d=0,r=32": (
        "dd533c6cc4e0aa58ffe5b0cc5685c295ad9213bc62d207f1a9581ff3870e7c47",
        "bd818237b18176187bcdac7659d0875293c26c68bdc18e387d1c12828d733687"),
    "simpletornado,cb=4,c=3,d=2,r=20": (
        "4b78cda75c00701397b64bbfa36bc620c2c4de9b75a1bebb09b4bc5591da0ae5",
        "4befb2494e788b4320a76accd268a856d8dbf59b9cf7138fe0809aef837e911d"),
    "tornado,cb=8,c=4,d=4,r=24": (
        "d1a244384646082dcc7d2f3f848bc8292915cbb6736d96d13f6f1ca3f4a3d9ff",
        "d2affdf1a66267e835103e989c9fc3c8bb4dc5980af478550b6d32a891217147"),
    "tornado,cb=16,c=1,d=2,r=64": (
        "6cb6d667c6bb96b9e9b1f7b38dd0f01ba5327a36706a4cb080cd3a85162d7ab6",
        "0b3b3b0b31d130800a8e38b32c3837bfc860721f43756258aa154e403b99d478"),
    "tornadomix,cb=8,c=8,d=5,r=64,psi=16": (
        "c3151c911075ba0afe22d415f3dccee21f4a857437164dfea99a52f1c49b5961",
        "8a3f1f8a6fe5fdc7cd23f6c7ded563738728f5d064e2601b24d5a0f385a17db3"),
    # the engine packs a position's level entries into 64-bit lanes; these
    # specs need more than one lane: a level that would straddle bit 64, three
    # lanes, and the two parallel psi-wide levels in different lanes
    "tornado,cb=12,c=5,d=5,r=40": (
        "be973ea2a3544719a1369a5902b43f5a83dfc96929039ea3257cfe74f7a59722",
        "84705f6d85a7a44bdcdf8e701558e8bf056c6d84fd346a3fc9b9bb091c16f894"),
    "simpletornado,cb=4,c=2,d=40,r=16": (
        "3251d9ea3f537a9f39c49399a77ea4955cc3aba6058178b608bf5b3696db139d",
        "74e1e9d13a31e848bcc980c696558c4de94b19e86a04fc2733bb1f129655379d"),
    "tornadomix,cb=6,c=4,d=8,r=48,psi=12": (
        "d55e9892038ab1a194f26e875b2a2a43ea557069078bff62d2af9aa229de2332",
        "98c8b7c339953d063c2470662c50525151e3c37e957a3daad9383c3370ed5422"),
}


@pytest.mark.parametrize("text", TABLES)
def test_dump_and_eval_batch(text):
    spec = parse_spec_string(text)
    h = TornadoHash.build(spec, 0x5EED)
    dump_digest, eval_digest = TABLES[text]
    assert sha256(dump_tables(h).encode()) == dump_digest
    assert array_digest(h.eval_batch(rng.raw_key_stream(0x5EED, 5000, spec.key_bits))) == (
        eval_digest)


# spec -> digest of eval_folded and eval_folded_batch over the 5000 keys of
# TABLES, under seed 0x5EED
FOLDED = {
    # c = 1: no twist, the key is the last input character
    "tornado,cb=8,c=1,d=3,r=32":
        "9003a1f07d528faf6403f552b56122c08606683360f8ca12f2d0d81aa569db6b",
    # its level entries need 72 bits, past one 64-bit word
    "tornadomix,cb=8,c=4,d=6,r=48,psi=16":
        "1a055cda1670daf3d393a3f2eaf7338f17ea887801a2e7fe7b16180309376b86",
}
# (derived keys, hashes) of the lane walk over three trials folded from their
# seeds, for the same keys and the c = 1 spec
FOLDED_STACK = ("433383059f036ac7281983167e43e990b66cb86ea3e1e746851ee96a1132b607",
                "9689483ba3405824987734a833e5976a56a8d72274ac6870418bc7ca29baa6d0")


@pytest.mark.parametrize("text", FOLDED)
def test_eval_folded(text):
    spec = parse_spec_string(text)
    h = TornadoHash.build(spec, 0x5EED)
    keys = rng.raw_key_stream(0x5EED, 5000, spec.key_bits)
    assert array_digest([h.eval_folded(int(x)) for x in keys]) == FOLDED[text]
    assert array_digest(eval_folded_batch(h, keys)) == FOLDED[text]
    if spec.c == 1:
        seeds = rng.trial_seed_vec(0x5EED, np.arange(3, dtype=np.uint64))
        chars, evals = eval_folded_stack(spec, fold_stacks(spec, seeds, keys), keys)
        assert (array_digest(chars), array_digest(evals)) == FOLDED_STACK


# spec -> (derived keys, hashes) of three trials' filled stacks, for the 5000
# keys of TABLES, reached by the lane walk over entries hashed from the seeds
# and over the lanes packed from them: the mix spec, whose levels fill one lane
# and whose top entries take a lane of their own, and a 16-bit spec whose
# levels need two lanes
FILLED_STACKS = {
    "tornadomix,cb=8,c=8,d=5,r=64,psi=16": (
        "e27f48ca436b0e5661226f2a35fbc3bc62aa60c08dd6d704cc25ab4141252977",
        "4b4330ff2f572e17f5173fe1b4cdd956f480c94bf5a0f231fd6ed331e01f1c60"),
    "tornado,cb=16,c=2,d=4,r=16": (
        "1cd779d3d5457bcec015cfc1cba9f90177e29a108ed3a32ebf0aa173fee56198",
        "c140437ff2cfdd451da2603192c96caca0f71a8130a53e1360691a7de3891033"),
}


@pytest.mark.parametrize("text", FILLED_STACKS)
def test_filled_stacks(text):
    spec = parse_spec_string(text)
    keys = rng.raw_key_stream(0x5EED, 5000, spec.key_bits)
    seeds = rng.trial_seed_vec(0x5EED, np.arange(3, dtype=np.uint64))
    # the walk over hashed entries, as a chunk that reads few entries runs it
    chars, evals = eval_folded_stack(spec, Hashed(seeds), keys)
    assert (array_digest(chars), array_digest(evals)) == FILLED_STACKS[text]
    # the walk over the lanes packed from the seeds, as a filled chunk runs it
    chars, evals = eval_folded_stack(spec, fold_stacks(spec, seeds, keys), keys)
    assert (array_digest(chars), array_digest(evals)) == FILLED_STACKS[text]


# keys -> derived keys of a chunk that fills its tables and does not evaluate,
# three trials of tornado,cb=8,c=4,d=4,r=24 under master seed 0x5EED: the
# 5000 keys of TABLES shared by every trial, and 300 keys sampled per trial
UNEVALUATED_CHUNKS = {
    "shared": "dcfa144d67783576a9c1f3f91d51512e19a8b9f648dc3437226460c2cd32278a",
    "sampled": "e1e73edb811af4f4226c94d3a70c858ab54607d31980f365cbe8e3859e6def30",
}


@pytest.mark.parametrize("keys", UNEVALUATED_CHUNKS)
def test_unevaluated_chunk(keys):
    spec = parse_spec_string("tornado,cb=8,c=4,d=4,r=24")
    xs = rng.raw_key_stream(0x5EED, 5000, spec.key_bits) if keys == "shared" else 300
    (chunk,) = experiments.trial_blocks(spec, xs, False, 0x5EED, 0, 3)
    *_, chars, evals = chunk
    assert evals is None
    assert array_digest(chars) == UNEVALUATED_CHUNKS[keys]


SELECTOR_KEYS = range(0, 65536, 37)
# selector -> (selected-set size, digest) under tornado,cb=8,c=2,d=3,r=10, seed 0x5E1
SELECTIONS = [
    (selectors.fixed_set([3, 5, 8], [5]), 3, "ddd019b204ede713"),
    (selectors.bit_prefix(SELECTOR_KEYS, 3, {0, 5}), 438, "bc61743414dde6bf"),
    (selectors.bit_prefix(SELECTOR_KEYS, 4, {0, 9}, [74], True), 216, "d2f9a45a9f984e6b"),
    (selectors.bit_prefix(SELECTOR_KEYS, 0, {0}, [74], True), 1772, "790b3d443e2db00e"),
    (selectors.dyadic_interval(SELECTOR_KEYS, 111, 6), 334, "f36d6e799ca2223b"),
    (selectors.dyadic_interval(SELECTOR_KEYS, 111, 10), 1772, "790b3d443e2db00e"),
    (selectors.bin_selector(SELECTOR_KEYS, 7, [37]), 3, "ac9aa2c9bb3e3d31"),
    (selectors.bin_selector(SELECTOR_KEYS, None, [370]), 4, "81a0b40f7cb92bbe"),
]


@pytest.mark.parametrize("sel,size,digest", SELECTIONS)
def test_select(sel, size, digest):
    h = TornadoHash.build(parse_spec_string("tornado,cb=8,c=2,d=3,r=10"), 0x5E1)
    chosen = sorted(selectors.select(sel, h))
    assert len(chosen) == size
    assert sha256(repr(chosen).encode())[:16] == digest


# argv -> (report rows without their params column, SHA-256 of the whole stdout)
CLI_RUNS = [
    (["independence", "--sigma-bits", "4", "--d", "1", "--set-size", "8", "--trials", "3000"],
     ["dependence,0.0,0.0,126.00390625,3000,0x2026,Informational"],
     "d33ff5ba5c62305899cabfd33956448a6e5d1027fc7026f885ab737f55789997"),
    (["lowerbound", "--sigma-bits", "4", "--d", "2", "--trials", "2000"],
     ["lowerbound_dependence,0.0425,0.0045107510461119445,23.62890625,2000,0x2026,"
      "Informational"],
     "d277e139074dce34c610e52fe04bebd9aa75476b57d546e89105d1720a65d753"),
    (["chernoff", "--set-size", "512", "--out-bits", "3", "--delta", "0.25", "--trials", "200"],
     ["chernoff_tail,0.025,0.011039701082909808,0.15700398290455658,200,0x2026,WithinBound"],
     "f53a76be1592210baf0cd3a5f03e56548c40cac17c3fbd1372b7f09a88aefa33"),
    (["chaining", "--n", "64", "--out-bits", "6", "--k", "2", "--k", "4", "--trials", "400"],
     ["chaining_tail_k2,0.2725,0.02226228593383887,0.6795704586618118,400,0x2026,WithinBound",
      "chaining_tail_k4,0.0125,0.0055551215108222435,0.07845913015325232,400,0x2026,"
      "WithinBound"],
     "125a2132cc61d0a77de8501b70b71d12de1e92a212ffa83ef1cd0ff0bc3761d8"),
    (["survival", "--rounds", "2", "--trials", "5000"],
     ["survival_2_rounds,0.0308,0.0024434140050347587,0.03228759765625,5000,0x2026,"
      "Informational"],
     "b2e14672cd3fc652ec05ba928cc5e4134261fe328ad56db5e2b61b3226a36bcd"),
    (["probing", "--sigma-bits", "12", "--out-bits", "12", "--n", "1024", "--m", "4096",
      "--queries", "64", "--trials", "2"],
     ["probing_mean_probe_length,1.4375,0.0,1.3888888888888888,2,0x2026,Informational",
      "probing_cdf_dominance,0.0,0.0,0.305968353835102,2,0x2026,WithinBound"],
     "4bc98139153f8bc6ae42304a91be5667b9497f36e12b4ca19bd637c390c7bbd9"),
]


@pytest.mark.parametrize("argv,rows,digest", CLI_RUNS, ids=[r[0][0] for r in CLI_RUNS])
def test_cli_stdout(capsys, argv, rows, digest):
    code = cli.main(argv + ["--seed", "0x2026", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split(',"')[0] for line in out.splitlines()[1:]] == rows
    assert sha256(out.encode()) == digest


# runs that call the exact enumerations (survival's exact rate, exact
# uniformity): argv -> SHA-256 of the whole stdout
EXACT_CLI_RUNS = [
    (["survival", "--sigma-bits", "2", "--trials", "5000", "--exhaustive", "--format", "csv"],
     "16ea4f39d64a730b01421a634b3ade126c76a4fb976650160572999fe303a24b"),
    (["selftest"], "4e5de5ffc08426da4aa64e6f6038321bb98a63bfc48e319871356c6d79e79eb2"),
]


@pytest.mark.parametrize("argv,digest", EXACT_CLI_RUNS, ids=["survival_exhaustive", "selftest"])
def test_exact_cli_stdout(capsys, argv, digest):
    assert cli.main(argv + ["--seed", "0x2026"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


def large_mu_run(workers=1):
    spec = parse_spec_string("tornado,cb=4,c=2,d=2,r=8")
    sel = selectors.bit_prefix(range(256), 1, {0}, [3])
    return experiments.large_mu_tail(sel, spec, 0.1, 600, 0x2026, workers=workers)


def hard_dependence_run(workers=1):
    spec = parse_spec_string("tornado,cb=8,c=2,d=3,r=8")
    return experiments.measure_dependence(selectors.hard_instance(8), spec, 3000, 0x2026,
                                          workers=workers)


def pruned_slots_dependence_run():
    """512 keys at c = 3 whose untwisted positions hold few characters:
    position 0 holds only 7 and position 1 holds 0 and 1; the twisted
    position 2 holds every character. A 2-bit prefix selector gives mu = 128."""
    spec = parse_spec_string("tornado,cb=8,c=3,d=2,r=8")
    keys = [(a << 16) | (b << 8) | 7 for a in range(256) for b in (0, 1)]
    return experiments.measure_dependence(selectors.bit_prefix(keys, 2, {0}), spec, 3000,
                                          0x2026)


def chernoff_run(workers=1):
    """The selector and spec of the ``chernoff`` CLI vector above."""
    spec = parse_spec_string("tornado,cb=8,c=2,d=4,r=3")
    keys = rng.sample_distinct_keys(rng.mix64(0x2026), 512, spec.key_bits)
    sel = selectors.bin_selector((int(k) for k in keys), 0)
    return experiments.chernoff_tail(sel, spec, 0.25, 200, 0x2026, workers=workers)


def _chernoff_bench_shape(delta):
    """``chernoff_tail`` at the benchmark's shape: 4096 sampled keys, bin 0 of
    64, 400 trials, which is three chunks, the last one partial."""
    spec = parse_spec_string("tornado,cb=8,c=2,d=4,r=6")
    keys = rng.sample_distinct_keys(rng.mix64(0x2026), 4096, spec.key_bits)
    sel = selectors.bin_selector((int(k) for k in keys), 0)
    return experiments.chernoff_tail(sel, spec, delta, 400, 0x2026)


def chernoff_bench_shape_run():
    """The benchmark's delta, 0.5: no trial reaches the threshold of 96 keys."""
    return _chernoff_bench_shape(0.5)


def chernoff_bench_shape_flagged_run():
    """delta = 0.1: 66 of the 400 trials reach the threshold, so their
    selected derived keys go through the dependence check."""
    return _chernoff_bench_shape(0.1)


def tornado_mix_chernoff_run():
    """128 keys at sigma = 256 and psi = 2^10, bin 0 of 8: a chunk that
    evaluates over hashed entries, psi-wide positions included; 332 of the
    2000 trials reach the threshold of 20 keys."""
    spec = parse_spec_string("tornadomix,cb=8,c=2,d=2,r=3,psi=10")
    return experiments.chernoff_tail(selectors.bin_selector(range(128), 0), spec, 0.25, 2000,
                                     0x2026)


def small_sigma_chernoff_run():
    """128 keys at sigma = 16, bin 0 of 16 (mu = 8), delta = 0.75: the
    threshold of 14 keys lies above mu + 2 sqrt(mu), and of the 155 trials
    that reach it, 55 have dependent derived keys, so the joint count is 100."""
    spec = parse_spec_string("tornado,cb=4,c=2,d=1,r=4")
    return experiments.chernoff_tail(selectors.bin_selector(range(128), 0), spec, 0.75, 5000,
                                     0x2026)


def two_column_dependence_run():
    """A 64-key fixed set at sigma = 256: fewer keys than characters."""
    spec = parse_spec_string("tornado,cb=8,c=2,d=2,r=8")
    keys = [(a << 8) | b for a in range(32) for b in (0, 1)]
    return experiments.measure_dependence(selectors.fixed_set(keys), spec, 3000, 0x2026)


def tornado_mix_dependence_run():
    """128 keys at psi = 2^10: the two psi-wide positions have eight times
    as many characters as the trial has keys."""
    spec = parse_spec_string("tornadomix,cb=4,c=2,d=2,r=8,psi=10")
    return experiments.measure_dependence(selectors.fixed_set(range(128)), spec, 3000, 0x2026)


def _survival(char_bits, c, d, trials, rounds):
    spec = TornadoSpec(char_bits, c, d, 1, Variant.SIMPLE_TORNADO)
    return experiments.survival_rounds(spec, cli.default_zero_set(char_bits), trials, 0x2026,
                                       rounds)


def survival_sigma256_run():
    return _survival(8, 2, 2, 200000, 2)


def survival_fewer_rounds_than_d_run():
    return _survival(4, 3, 3, 20000, 1)


def survival_more_rounds_than_d_run():
    return _survival(4, 2, 1, 20000, 3)


def survival_zero_rounds_run():
    return _survival(4, 2, 2, 1000, 0)


# reports no CLI command prints: run -> (CSV row without its params column,
# SHA-256 of the whole CSV); the sigma = 256 dependence runs take the 4-sigma
# verdict, not the informational one
REPORT_RUNS = [
    (large_mu_run,
     "large_mu_tail,0.04666666666666667,0.008610931897776695,98.3965098926345,600,0x2026,"
     "Informational",
     "e5357bc0bdf665f69679f8d1862703cdb866b0f1ac53d156416cffadddf359da"),
    (hard_dependence_run,
     "dependence,0.001,0.0005770615218501404,0.27685546875,3000,0x2026,WithinBound",
     "9dcbcd9da1b1e3d0952fdd060d6ec964b177560f3cee3ae78475b508ac891211"),
    (pruned_slots_dependence_run,
     "dependence,0.04466666666666667,0.0037714522205447402,23.625,3000,0x2026,WithinBound",
     "67d11627c0809f03a47925c647566865154ce12bd44c1dbb51de8a89e2996604"),
    (chernoff_bench_shape_run,
     "chernoff_tail,0.0,0.0,0.0009832468224052102,400,0x2026,WithinBound",
     "8c1df45c208ee7617f0a48f07fb4c8c193e2185b4016799cfe4d73ec2b24e506"),
    (chernoff_bench_shape_flagged_run,
     "chernoff_tail,0.165,0.018559027452967464,0.7335667685372868,400,0x2026,WithinBound",
     "c41edfb03cadb55d0ca77d26342866604e2b1306cc67efddd24143195d0edee9"),
    (tornado_mix_chernoff_run,
     "chernoff_tail,0.166,0.008319975961503736,0.6294738128496303,2000,0x2026,WithinBound",
     "b638627aa5938a7ac3f00ef9110953433214421ff736d6648197d37c68ea9e6d"),
    (small_sigma_chernoff_run,
     "chernoff_tail,0.02,0.001979898987322333,0.1596740017850484,5000,0x2026,Informational",
     "b74490b1e03b6a821325761252b646bdb45d16a59c02eae38decd3a770831df4"),
    (two_column_dependence_run,
     "dependence,0.006333333333333333,0.001448357946345012,2.953125,3000,0x2026,WithinBound",
     "d984c965f7f74be398aac1398fc802f082e7a597c491092ccb1fbf45e1083391"),
    (tornado_mix_dependence_run,
     "dependence,0.011666666666666667,0.0019604893569000878,47.25390625,3000,0x2026,"
     "Informational",
     "2a61b897c50f728d9fbf873853f7f5c4fdc56d04a585fec1e77f3f136f0ca105"),
    (survival_sigma256_run,
     "survival_2_rounds,0.00014,2.6455661019902714e-05,0.00013661477714776993,200000,0x2026,"
     "Informational",
     "9d3a2eb834b0e1283a803e8a7522254128a9d36176d02d8d2808b6123a3c457d"),
    (survival_fewer_rounds_than_d_run,
     "survival_1_rounds,0.1807,0.0027207306922957296,0.1796875,20000,0x2026,Informational",
     "179cda34b2e45461ce4488c584a4817fd47a52e531861ac050ec88f9c9f1eb50"),
    (survival_more_rounds_than_d_run,
     "survival_3_rounds,0.0055,0.0005229603235428095,0.005801677703857422,20000,0x2026,"
     "Informational",
     "0f98ca240a77f79388afd6ab363f7acda3c4d6a5ab9db3b53c1d94391eb4e25e"),
    (survival_zero_rounds_run,
     "survival_0_rounds,1.0,0.0,1.0,1000,0x2026,Informational",
     "fbbe3a90b3d1fe1174414df1fdb965158112c516ed6d1a99e00184fba803d4ab"),
]


@pytest.mark.parametrize("run,row,digest", REPORT_RUNS, ids=[r[0].__name__ for r in REPORT_RUNS])
def test_report(run, row, digest):
    out = experiments.reports_to_csv([run()])
    assert out.splitlines()[1].split(',"')[0] == row
    assert sha256(out.encode()) == digest


def chaining_run(workers=1):
    spec = parse_spec_string("tornado,cb=8,c=2,d=4,r=8")
    return experiments.chaining_tail(spec, 256, [4, 8], 768, 0x2026, workers=workers)


def test_chaining_report():
    """``chaining_tail`` at the benchmark's shape: rows without their params
    column, and the SHA-256 of the whole CSV."""
    out = experiments.reports_to_csv(chaining_run())
    assert [line.split(',"')[0] for line in out.splitlines()[1:]] == [
        "chaining_tail_k4,0.01953125,0.00499345669161538,0.07845913015325232,768,0x2026,"
        "WithinBound",
        "chaining_tail_k8,0.0,0.0,6.536597690753065e-05,768,0x2026,WithinBound"]
    assert sha256(out.encode()) == (
        "1e9d4e2752bde7ec44155f26584c11dadd9277aa675c28315f0ebb6844ed258f")


@pytest.mark.parametrize("run", [large_mu_run, chernoff_run, chaining_run],
                         ids=lambda f: f.__name__)
def test_two_workers_give_the_same_report(run):
    assert run(workers=2) == run(workers=1)


# (spec, n, m, queries, trials, star_delta) -> SHA-256 of ``histograms_csv``
# under seed 0x2026: a pool (n_star + queries keys) below sigma, a pool of at
# least sigma, a pool of at least sigma (373) whose inserted and queried keys
# (216) are fewer, and a sigma = 2^16 run of 20 trials that spans several chunks
PROBE_RUNS = [
    (("tornado,cb=12,c=2,d=4,r=12", 1024, 4096, 64, 3, 0.01),
     "f0ef5662916e7437ea4d8b076c089e73ca9f41525df7a9a5e38078cc5e5dc187"),
    (("tornado,cb=8,c=2,d=4,r=10", 256, 1024, 32, 4, 0.5),
     "03fe96cdfc2b42e686075899f3da5379e7117fdb5f11260c4a6cb550586c8c6c"),
    (("tornado,cb=8,c=2,d=4,r=10", 200, 1024, 16, 4, 0.5),
     "c3d423b5e1f6573a635a78721e5d5927608dd2fe08ba744ad57f7add7dd88e71"),
    (("tornado,cb=16,c=2,d=4,r=16", 1024, 1 << 16, 64, 20, 0.01),
     "2b66e7fbcf06d2dae836a4f93461b720d293a349f8cae437844746cea563b22f"),
]


@pytest.mark.parametrize("args,digest", PROBE_RUNS,
                         ids=["pool_below_sigma", "pool_above_sigma", "read_below_sigma",
                              "several_chunks"])
def test_probe_histograms(args, digest):
    text, n, m, queries, trials, star_delta = args
    comparison = linprobe.probe_experiment(parse_spec_string(text), n, m, queries, trials,
                                           0x2026, star_delta)
    assert sha256(linprobe.histograms_csv(comparison).encode()) == digest
