"""Bit-identity oracle: sha256 digests of everything a tiny training run,
its evaluation and its diagnostics produce, for the standard model and the
metric-weighted model in all four scaling modes, with one and two heads;
of every number the kernel-regression lab reports (``nw-sparse`` with
oracle and consistent weights, ``edge-preserve``, ``estimator-bench``); and
of the ``verify`` report.

A kernel or refactor change that claims "same bits" must leave every digest
here unchanged.  The expected values pin this machine's numpy/OpenBLAS
build: another BLAS, or another numpy, may round a matrix product
differently and move them without any change to the code.  A change that
moves bits on purpose records the new digests and says so.
"""

import hashlib

import numpy as np
import pytest

from elliptical import nwlab, verification
from elliptical.cli import main
from elliptical.estimators import (
    SyntheticFunction,
    oracle_variability,
    piecewise_step,
    ranking_catalog,
    sparse_sinusoid,
)
from elliptical.metric import compute_kappa, scale_rows, sq_distances
from elliptical.model import (
    Corpus,
    ModelConfig,
    TrainParams,
    diagnose,
    perplexity,
    synthetic_corpus,
    train,
)
from elliptical.numerics import central_differences, derive_rng

from oracles import finite_diff_jacobian, linear_function, masa, masa_jacobian

VARIANTS = ("standard", "maxscale", "meanscale", "unscaled", "identity")

#: (variant, heads) -> sha256 of (training, evaluation, diagnostics)
EXPECTED = {
    ("standard", 1): (
        "40223538e97d99b7aad9ad9951713f06f3623f39dbdc4472331e2278e8511099",
        "e1233ef93c0980de5c937a440f66da69fc4f20581fe89c2524425256562f7588",
        "6674184089e968ca50c1d0609cd982a7965c23025d3cdc734d63a45c775c335a",
    ),
    ("standard", 2): (
        "c374146b65512f4a181bba2d5b1f3065f75b0cc54cf8980eead05b8cc0dc4371",
        "f655a00c855086d03b392bbf117e7fba29acfef2388a7c62773a39984d72c30f",
        "eb0561b29b4eb9ccd92e901d437a5fa486036de9c92b3a5f4ef61c1af66548aa",
    ),
    ("maxscale", 1): (
        "bc52aabdd639bb07be04772cc47abea06b6d91f6dada1abf9d84ef4cfc346a15",
        "d3caa52acc2fe337a02d518a8f95895f2c6e1b15ddef05c7fe48c00786edf5a1",
        "764958af3456557312466578e046b1631d9dfdd2d640f5f96a1528c9597f364e",
    ),
    ("maxscale", 2): (
        "9bc8862568b0620acbf4e4c63eeedd2791dd43bfca077e4ba8077bf1547ae45c",
        "4646e5fbe13f4710888f1a41ed64d57d8256b1c3ade432a91b4f89ed6f7def1a",
        "ba2f62a776c1cbe3747861e46979ab576e87e1cfca23d5229fcb958a9d1827e6",
    ),
    ("meanscale", 1): (
        "58098c8f3c28a40e0f4b8c6919fc1648bdfcfe6e337f5bb03745791395ba23bf",
        "3badaa5872d17f0c9e9a5297bd451b649e4cde3a5b45e7b30f1367f8aae34601",
        "1884d5333263131d3fd8f4849be5619597741d4b9911cbfab06f25160f9888d4",
    ),
    ("meanscale", 2): (
        "4fe142b40cb056c8f579ed47d6dbd3c63784d73e221939e0625d838c230f99c0",
        "4b90321208d46247dd5d43558e4f2c1b9e00f8f12fe5d8e395868d9cec564763",
        "9bd530980069c1d6cb0e18c05ecfa414bc9d343119c2488e53ac364d53aa0839",
    ),
    ("unscaled", 1): (
        "748511c256adf1180eb7814a20269ca1486c7e5f9a9492400afd96bf2860b764",
        "d766196d85753047f8d677ab147c4b2f0af520889727d9c372fb07dd020ece22",
        "1a01cda28320ccd65aaa8b94a9acc0f9d7a3aa8326b9d62e99d2dcffba8f1a9a",
    ),
    ("unscaled", 2): (
        "3f8acbcecd8b85caf725474ccc8ce877ea2a56c7c96d52c30d900ef8b9ca1d01",
        "85301069db9d50a3eabf9d355e8a71eb26c998d747c101f0a8e01e1be108b8f5",
        "2d062000ec89b9e92b38dc817beeb81eb861f73973ee166bc80d6e9d79033451",
    ),
    ("identity", 1): (
        "40223538e97d99b7aad9ad9951713f06f3623f39dbdc4472331e2278e8511099",
        "e1233ef93c0980de5c937a440f66da69fc4f20581fe89c2524425256562f7588",
        "6674184089e968ca50c1d0609cd982a7965c23025d3cdc734d63a45c775c335a",
    ),
    ("identity", 2): (
        "c374146b65512f4a181bba2d5b1f3065f75b0cc54cf8980eead05b8cc0dc4371",
        "f655a00c855086d03b392bbf117e7fba29acfef2388a7c62773a39984d72c30f",
        "eb0561b29b4eb9ccd92e901d437a5fa486036de9c92b3a5f4ef61c1af66548aa",
    ),
}


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _digests(variant: str, heads: int) -> tuple[str, str, str]:
    corpus = synthetic_corpus(21, 600)
    cfg = ModelConfig(
        vocab_size=corpus.vocab_size, layers=3, heads=heads, head_dim=16 // heads,
        embed_dim=16, ff_dim=32, context=24, elliptical=variant != "standard",
        scaling="maxscale" if variant == "standard" else variant, seed=3,
    )
    train_tokens, eval_tokens = corpus.tokens[:-100], corpus.tokens[-100:]
    res = train(Corpus(train_tokens, corpus.charset), cfg, TrainParams(steps=12, lr=3e-3, batch_size=3))
    names = sorted(res.params)
    training = _sha(
        res.losses,
        *(res.params[k].value for k in names),
        *(res.opt.m[k] for k in names),
        *(res.opt.v[k] for k in names),
    )
    evaluation = _sha(
        perplexity(res.params, cfg, eval_tokens),
        perplexity(res.params, cfg, eval_tokens, 0.1, derive_rng(3, 9, 0)),
        perplexity(res.params, cfg, eval_tokens, 0.1, derive_rng(3, 9, 1), corrupt_targets=False),
    )
    report = diagnose(res.params, cfg, eval_tokens, (0.01, 0.1, 1.0), derive_rng(3, 9, 2))
    diagnostics = _sha(
        report.cosine_by_layer,
        report.head_distance_by_layer,
        report.ppl_clean,
        report.ppl_corrupt,
        report.robustness,
        report.robustness_sup,
        *(a for maps in report.attention for a in maps),
    )
    return training, evaluation, diagnostics


@pytest.mark.parametrize("heads", (1, 2))
@pytest.mark.parametrize("variant", VARIANTS)
def test_outputs_match_pinned_digests(variant, heads):
    got = _digests(variant, heads)
    assert got == EXPECTED[(variant, heads)], (
        "training, evaluation or diagnostics bits moved: " + repr(got)
    )


#: lab run -> sha256 of its per-seed errors, bandwidths and p-value, or of
#: its results.csv.  The n = 200 and n = 80 runs fit on the caller's thread; the
#: fanned run, at n = MIN_FANOUT_N, maps its (seed, kernel) fits over threads, and
#: its digest was recorded while each thread fitted whole seeds.
LAB_EXPECTED = {
    "sparse-oracle-maxscale-fanned": "7972e92d31264ff9c6e38ffbee0471e4f36fec4146edcbe49b09af8c436ec128",
    "sparse-oracle-maxscale": "f8a85ede1a36a174255346addd9691e91f5897dd3a151b9f518f92717d411893",
    "sparse-consistent-meanscale": "9581215ff16781c0f28b1845b9f93bcc35f8b581b1c4b33038528990ba1e8b13",
    "edge-preserve": "16f5636d393809c0aa6fb7c42878037a8f03cab53246bc9343c683b9cd6f6b02",
    "estimator-bench": "95d1a2d3cb47139212b70d91a012f8ab6c477bd9a5d8ed6c40be7a5ae53c2ade",
}


def _sparse_digest(weights_source: str, scaling: str, n: int, dim: int, jobs=None) -> str:
    cfg = nwlab.SparseMSEConfig(
        truth=sparse_sinusoid(dim, [0], [1.0], [2]), n=n, n_queries=100, seeds=5,
        seed=4, weights_source=weights_source, scaling=scaling,
    )
    res = nwlab.run_sparse_mse_experiment(cfg, jobs=jobs)
    return _sha(
        res.per_seed_euclidean, res.per_seed_elliptical,
        res.bandwidths_euclidean, res.bandwidths_elliptical, res.p_value_less,
    )


def _edge_digest() -> str:
    res = nwlab.run_edge_preservation_experiment(nwlab.EdgeConfig(n=120, seeds=6, seed=2))
    return _sha(res.per_seed_euclidean, res.per_seed_elliptical, res.piece_distance)


def _bench_digest(tmp_path, monkeypatch) -> str:
    monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
    assert main(["estimator-bench", "--set", "seeds=3", "--set", "n=512", "--set", "out=b"]) == 0
    return hashlib.sha256((tmp_path / "b" / "results.csv").read_bytes()).hexdigest()


#: verify seed -> sha256 of its verify.csv.  Seed 5 was cacc7af7... while the
#: robustness suite grouped its moved outputs as q . (k * m); the kernel groups
#: them as (q * m) . k, which moved that suite's slack from -4.462708875935805
#: to -4.462708875935797 and no other byte of the file.
VERIFY_EXPECTED = {
    0: "52a9e0491682b8a121c25c27ce8b255ef240b282cf69edb2ddc318ac5f4988c4",
    5: "ad23672f1fd0c3a6284418caf1613afe68279d72debd9552f0e8ef2e7905eef5",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_EXPECTED))
def test_verify_csv_matches_pinned_digest(seed, tmp_path, monkeypatch):
    monkeypatch.setenv("ELLIPTICAL_OUT", str(tmp_path))
    assert main(["verify", "--set", f"seed={seed}", "--set", "out=v"]) == 0
    got = hashlib.sha256((tmp_path / "v" / "verify.csv").read_bytes()).hexdigest()
    assert got == VERIFY_EXPECTED[seed], f"verify seed {seed} bits moved: {got}"


def _masa_jacobian_suite_reference(n_instances: int, seed: int) -> verification.SuiteResult:
    """The masa-Jacobian suite as one loop over instances, each drawn and
    evaluated on its own: n, d, keys, query, then the uniform weight row."""
    rng = derive_rng(seed, 21, 1)
    worst_rel, worst_bound = 0.0, -np.inf
    for _ in range(n_instances):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        keys = rng.uniform(-2.0, 2.0, (n, d))
        q = rng.uniform(-2.0, 2.0, d)
        m = scale_rows(rng.uniform(0.0, 1.0, d), "maxscale")
        jac = masa_jacobian(q, keys, m)
        fd = central_differences(lambda x: masa(x, keys, m), q[None])[0].T
        worst_rel = max(worst_rel, float(np.max(np.abs(jac - fd) / (1.0 + np.abs(fd)))))
        envelope = compute_kappa(keys).T * m[None, :]
        worst_bound = max(worst_bound, float(np.max(np.abs(jac) - envelope)))
    slack = max(worst_rel - verification.JACOBIAN_RTOL, worst_bound)
    detail = f"max rel fd error {worst_rel:.3e}, max envelope excess {worst_bound:.3e}"
    return verification.SuiteResult("masa-jacobian", slack <= 0.0, slack, detail)


@pytest.mark.parametrize("seed", range(4))
def test_masa_jacobian_suite_matches_the_per_instance_loop(seed):
    # grouping instances by shape must keep every bit of the worst-case figures
    got = verification.suite_masa_jacobian(n_instances=300, seed=seed)
    assert got == _masa_jacobian_suite_reference(300, seed)


def _nw_equivalence_suite_reference(n_instances: int, seed: int) -> verification.SuiteResult:
    """The nw-equivalence suite as one loop over instances, each drawn and
    evaluated on its own."""
    rng = derive_rng(seed, 21, 4)
    worst = 0.0
    for _ in range(n_instances):
        q, keys, u = verification._random_instance(rng)
        m = scale_rows(u, "maxscale")
        keys = keys / np.sqrt(sq_distances(keys, 0.0, m))[:, None]
        probs = masa(q, keys, m)
        d2 = sq_distances(q, keys, m)
        gauss = np.exp(-(d2 - d2.min()) / 2.0)
        gauss /= gauss.sum()
        worst = max(worst, float(np.max(np.abs(probs - gauss))))
    slack = worst - verification.EQUIVALENCE_ATOL
    return verification.SuiteResult("nw-equivalence", slack <= 0.0, slack,
                                    f"max weight discrepancy {worst:.3e}")


@pytest.mark.parametrize("seed", range(6))
def test_nw_equivalence_suite_matches_the_per_instance_loop(seed):
    # grouping instances by shape must keep every bit of the worst discrepancy
    got = verification.suite_nw_equivalence(seed=seed)
    assert got == _nw_equivalence_suite_reference(200, seed)


LAB_RUNS = {
    "sparse-oracle-maxscale": lambda tmp, mp: _sparse_digest("oracle", "maxscale", 200, 5),
    "sparse-oracle-maxscale-fanned":
        lambda tmp, mp: _sparse_digest("oracle", "maxscale", nwlab.MIN_FANOUT_N, 5),
    "sparse-consistent-meanscale": lambda tmp, mp: _sparse_digest("consistent", "meanscale", 80, 3),
    "edge-preserve": lambda tmp, mp: _edge_digest(),
    "estimator-bench": _bench_digest,
}


@pytest.mark.parametrize("run", sorted(LAB_RUNS))
def test_lab_outputs_match_pinned_digests(run, tmp_path, monkeypatch):
    got = LAB_RUNS[run](tmp_path, monkeypatch)
    assert got == LAB_EXPECTED[run], f"{run} bits moved: {got}"


@pytest.mark.parametrize("jobs", (1, 2, 3))
def test_fanned_lab_run_matches_its_pin_at_every_thread_count(jobs):
    got = _sparse_digest("oracle", "maxscale", nwlab.MIN_FANOUT_N, 5, jobs)
    assert got == LAB_EXPECTED["sparse-oracle-maxscale-fanned"], f"jobs={jobs} moved bits: {got}"


def _cv_scores_reference(data, m) -> list[float]:
    """Summed held-out error per grid bandwidth, one distance matrix and one
    validated training set per (bandwidth, fold) pair."""
    bounds = np.linspace(0, data.n, nwlab.CV_FOLDS + 1, dtype=int)
    scores = []
    for bw in nwlab.BANDWIDTH_GRID:
        err = 0.0
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mask = np.ones(data.n, dtype=bool)
            mask[lo:hi] = False
            train = nwlab.NWDataset(data.keys[mask], data.values[mask])
            pred = nwlab.nw_estimate_batch(data.keys[lo:hi], train, bw, m)
            err += float(np.sum((pred - data.values[lo:hi]) ** 2))
        scores.append(err)
    return scores


@pytest.mark.parametrize("n", (5, 37, 120))
@pytest.mark.parametrize("weighted", (False, True))
def test_cross_validation_scores_match_the_per_pair_loop(n, weighted, monkeypatch):
    # the scores are read where the bandwidth is picked, so every bit of
    # every grid point's error is compared, not only the winner
    truth = sparse_sinusoid(3, [0], [1.0], [2])
    rng = derive_rng(8, 0, n)
    data = nwlab.sample_dataset(truth, n, 0.3, rng)
    m = scale_rows(np.array([1.3, 0.2, 0.05]), "maxscale") if weighted else np.ones(3)
    seen = []
    argmin = np.argmin
    monkeypatch.setattr(np, "argmin", lambda a, *args, **kw: seen.append(a) or argmin(a, *args, **kw))
    got = nwlab.cross_validate_bandwidth(data, m)
    monkeypatch.undo()
    want = _cv_scores_reference(data, m)
    assert len(seen) == 1
    assert np.asarray(seen[0], dtype=np.float64).tobytes() == np.asarray(want).tobytes()
    assert got == float(nwlab.BANDWIDTH_GRID[int(np.argmin(want))])


def _oracle_reference(f, pts) -> np.ndarray:
    """Monte-Carlo variability from one finite-difference Jacobian per point."""
    raw = np.zeros(pts.shape[1])
    for x in pts:
        raw += np.sum(np.abs(finite_diff_jacobian(f, x)), axis=0)
    return raw / len(pts)


def _dense_outputs() -> SyntheticFunction:
    """Seventeen outputs that each move with two of three inputs: every
    Jacobian column sums many nonzero terms, past numpy's eight-way unrolled
    summation, so the order in which outputs are added shows in the bits."""
    return SyntheticFunction(
        "dense", 3, 17,
        lambda p: np.stack([np.sin(p[:, o % 3] * (o + 1)) * np.cos(p[:, (o + 1) % 3] * 0.5 + o)
                            for o in range(17)], axis=1),
    )


ORACLE_TRUTHS = {
    "sparse_sinusoid": lambda: sparse_sinusoid(5, [0, 3], [1.0, 0.4], [2, 1]),
    "ranking_catalog": ranking_catalog,
    "piecewise_step": lambda: piecewise_step((1.0, 0.0), (0.0, 1.0)),
    "dense_outputs": _dense_outputs,
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(ORACLE_TRUTHS))
def test_oracle_matches_the_per_point_loop_bitwise(name, seed):
    f = ORACLE_TRUTHS[name]()
    pts = derive_rng(9, 0, seed).uniform(-3.0, 3.0, (200, f.dim))
    got = oracle_variability(f, pts)
    want = _oracle_reference(f, pts)
    assert got.tobytes() == want.tobytes()


def test_oracle_on_a_linear_map_matches_the_per_point_loop():
    # a many-row matrix product may round differently from a one-row one
    f = linear_function(derive_rng(9, 1, 0).standard_normal((3, 4)))
    pts = derive_rng(9, 0, 1).uniform(-3.0, 3.0, (200, f.dim))
    got = oracle_variability(f, pts)
    want = _oracle_reference(f, pts)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
