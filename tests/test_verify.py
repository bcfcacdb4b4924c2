from coreshell.config import load_config
from coreshell.verify import run_verification


def _result(results, name):
    return next(r for r in results if r.name == name)


def test_gradient_fd_step_above_rounding(repo_root):
    # With a 1e-6 difference step the rounding of E alone exceeded
    # gradient_rtol at this seed (rel err 9.7e-6), a false failure.
    config = load_config(repo_root / "configs" / "annulus_desk.cfg",
                         ["verify.seed=1376710555"])
    results = run_verification(config)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 17


def test_pairing_slack_sets_monotonicity_floor(repo_root):
    verdicts = []
    for slack in ("1e-12", "1e9"):
        config = load_config(repo_root / "configs" / "radial_desk.cfg",
                             [f"verify.pairing_slack={slack}",
                              "verify.monotonicity_pairs=50"])
        results = run_verification(config, corrupt_b=True)
        verdicts.append(_result(results, "operator-monotonicity").passed)
    assert verdicts == [False, True]
