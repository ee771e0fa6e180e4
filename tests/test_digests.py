"""Pinned trajectories: sha256 of every output file for a small config matrix.

Reruns agreeing with each other (criterion 10) cannot catch a refactor that
moves a trajectory; these digests can. The matrix covers every scenario,
every base kind, every environment kind, both estimators and both restart
policies. A change that alters a digest on purpose says why in CHANGES.md.
"""

import hashlib

import pytest

from corral.harness import ExperimentConfig, execute

CONTEXTUAL_ENV = {
    "kind": "stochastic-contextual",
    "context_probs": [0.3, 0.7],
    "cond_means": [[0.2, 0.6, 0.8], [0.7, 0.3, 0.5]],
    "policies": [[0, 1], [1, 0], [2, 2], [0, 0]],
}
POLICIES = [[0, 1], [1, 0], [2, 1], [0, 2]]
MAB_ENV = {"kind": "stochastic-mab", "means": [0.2, 0.5, 0.7]}
PRIOR_ENV = {"kind": "stochastic-mab", "means_prior": [[4, 4], [2, 6], [6, 2]]}
SCRIPT_ENV = {
    "kind": "adversarial-mab",
    "script": [[0.9, 0.1] if (t // 50) % 2 else [0.2, 0.8] for t in range(400)],
}

CONFIGS = {
    "corral-standard-restart": {
        "scenario": "corral-run",
        "horizon": 400,
        "seeds": [0, 1],
        "environment": MAB_ENV,
        "bases": [
            {"kind": "exp3"},
            {"kind": "thompson", "prior": [[1, 1], [1, 1], [1, 1]]},
            {"kind": "ucb1"},
        ],
        "master": {"eta": 0.8},
    },
    "corral-standard-never": {
        "scenario": "corral-run",
        "horizon": 400,
        "seeds": [2],
        "environment": SCRIPT_ENV,
        "bases": [{"kind": "exp3"}, {"kind": "pathological", "arm_pair": [0, 1]}],
        "master": {"eta": 0.8, "restart_policy": "never-restart"},
    },
    "corral-shared-restart": {
        "scenario": "corral-run",
        "horizon": 400,
        "seeds": [3, 4],
        "environment": CONTEXTUAL_ENV,
        "bases": [
            {"kind": "exp4", "policies": POLICIES},
            {"kind": "epoch-greedy", "policies": POLICIES},
            {"kind": "exp3"},
        ],
        "master": {"eta": 0.8, "estimator": "shared"},
    },
    "corral-shared-never": {
        "scenario": "corral-run",
        "horizon": 400,
        "seeds": [5],
        "environment": PRIOR_ENV,
        "bases": [
            {"kind": "thompson", "prior": [[2, 2], [1, 3], [3, 1]]},
            {"kind": "ucb1"},
            {"kind": "exp3"},
        ],
        "master": {
            "eta": 0.8,
            "estimator": "shared",
            "restart_policy": "never-restart",
        },
    },
    "corral-lower-bound-tuned": {
        "scenario": "corral-run",
        "horizon": 300,
        "seeds": [6],
        "environment": {"kind": "lower-bound"},
        "bases": [
            {"kind": "pathological", "arm_pair": [0, 1]},
            {"kind": "pathological", "arm_pair": [2, 3]},
            {"kind": "exp3"},
        ],
        "master": {"eta": "tuned", "regret_target": 2.0},
    },
    "standalone-thompson": {
        "scenario": "standalone-run",
        "horizon": 300,
        "seeds": [0, 1],
        "environment": PRIOR_ENV,
        "bases": [{"kind": "thompson", "prior": [[1, 1], [1, 1], [1, 1]]}],
    },
    "standalone-epoch-greedy": {
        "scenario": "standalone-run",
        "horizon": 300,
        "seeds": [7],
        "environment": CONTEXTUAL_ENV,
        "bases": [{"kind": "epoch-greedy", "policies": POLICIES}],
    },
    "stability-exp3": {
        "scenario": "stability-test",
        "horizon": 500,
        "seeds": [0, 1, 2],
        "environment": MAB_ENV,
        "bases": [{"kind": "exp3"}],
        "rho_levels": [1.0, 3.0, 8.0],
    },
    "stability-epoch-greedy": {
        "scenario": "stability-test",
        "horizon": 500,
        "seeds": [0, 1, 2],
        "environment": CONTEXTUAL_ENV,
        "bases": [{"kind": "epoch-greedy", "policies": POLICIES}],
        "rho_levels": [1.0, 3.0, 8.0],
    },
    "stability-exp4": {
        "scenario": "stability-test",
        "horizon": 500,
        "seeds": [0, 1],
        "environment": CONTEXTUAL_ENV,
        "bases": [{"kind": "exp4", "policies": POLICIES}],
        "rho_levels": [1.0, 4.0],
    },
    "lowerbound-demo": {
        "scenario": "lowerbound-demo",
        "horizon": 500,
        "seeds": [0, 1, 2],
    },
    "sweep": {
        "scenario": "sweep",
        "runs": [
            {
                "name": "alone",
                "config": {
                    "scenario": "standalone-run",
                    "horizon": 200,
                    "seeds": [8],
                    "environment": SCRIPT_ENV,
                    "bases": [{"kind": "ucb1"}],
                },
            },
            {
                "name": "demo",
                "config": {
                    "scenario": "lowerbound-demo",
                    "horizon": 100,
                    "seeds": [9],
                    "demo": {"corral_eta": 0.3, "naive_eta": 0.01},
                },
            },
        ],
    },
}

DIGESTS = {
    "corral-lower-bound-tuned": {
        "rounds.csv": "91a4643264e7655fb925e054e50a7cf59885556219aa36ba42a909fc53ea9f04",
        "summary.json": "8fcdfde68753868b14b3b9691aeb5bcb0d6f551cd81c140471f3377ed7fe7244",
    },
    "corral-shared-never": {
        "rounds.csv": "c2b289eb1624eb56afc72f26a5020c9d7b40eb9aed24dfac3d14dc3f451184f7",
        "summary.json": "ab3bb2176b082e3b073e659a8ca40f3916d34c0cac8868b17863b55c10feea7b",
    },
    "corral-shared-restart": {
        "rounds.csv": "7fd580b19a45d5ab48627fac2acc35a4cf0f8c3966056acd03a17e1fd0581c49",
        "summary.json": "d303ac4df21e8ddac7739786e027d380a70bd0197d94b67cfb55588710b4cafa",
    },
    "corral-standard-never": {
        "rounds.csv": "0194a88b34c34bcdb3f7847e3e17a6817bbb074882999e5f08a4d2dbc812219a",
        "summary.json": "971a9aec693af0081aa31ee87285eab99934d6c3224861c4d05917b3a491e97f",
    },
    "corral-standard-restart": {
        "rounds.csv": "e8c9564707342f14a98a7146352cc17ab2a87930b4d7233d9e57d64123fd1495",
        "summary.json": "d4f0def4c1e7ff5f921341bd1eb09de36df653735643e961c35ce809bcd4907b",
    },
    "lowerbound-demo": {
        "rounds.csv": "894a0f51e6020e78111d13af4b9655e7560f6f3a80f86468889927ed8898e769",
        "summary.json": "473c51d666197a90dd1329ac26164fcf83196c7502c7f74d95a98e8678c2e7ac",
    },
    "stability-epoch-greedy": {
        "summary.json": "4645d5f421a6006f49e771bc83dc0e040ecf454f315c8a46c91157bc760fbd77",
    },
    "stability-exp3": {
        "summary.json": "114d519c53fe1f5e2cdd88c65e4c7f3e92e1bd63bd78ef8cece7f908a17e547e",
    },
    "stability-exp4": {
        "summary.json": "14e692ee003645505b6c645b345baa674dc6eb3d3809643f0758c752376fc46a",
    },
    "standalone-epoch-greedy": {
        "rounds.csv": "3b661ea8b1c778e471b44ce4729f63325a3845d8e0e6c17e97c01588385e51a0",
        "summary.json": "455a5c864aff6f94b6640bc4c3bc60fc6cb33a954d5dfc9354f72520a1194b59",
    },
    "standalone-thompson": {
        "rounds.csv": "22f1f0db31e5f99f7326e6a0fbc10ec0ad4866d80f03ba40c963c2e7c7499e13",
        "summary.json": "d69474008e50ab6b6c1ba1c6267a7f629ed61cddee2aee369efc83b36c76d882",
    },
    "sweep": {
        "alone/rounds.csv": "f4b62e692fd616b934e846a3f2a1467338b2b8c6964e5ae2e9fcb1661073322f",
        "alone/summary.json": "ce9c80a380dd387efcd1caa141d2a27812b8a8077499722271a7a8d7b8ccc0c7",
        "demo/rounds.csv": "20ec582daddef7f43c3070bb2b76356155d592aeb343a6fe832d82e92d24eb03",
        "demo/summary.json": "268e610ab7ae258b7b38510ee4b3e28777d145ab32f5efa49b75a60ae94a9d13",
        "summary.json": "64cad94f988667d6fd624f6d110f0a9fccaf2a0483bd28139aa2dd3369dbbf8d",
    },
}


def output_digests(out_dir) -> dict:
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pinned_digests(name, tmp_path):
    execute(ExperimentConfig.from_dict(CONFIGS[name]), tmp_path)
    assert output_digests(tmp_path) == DIGESTS[name]
