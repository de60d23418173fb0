"""The sampler: draw stability and the axes it may (and may not) draw.

``(seed, index)`` is a name users and CI logs already hold, so the draws
the previous sampler made must stay the first draws this one makes: the
table below is the old sampler's output for the CI gate (seed 7 x 0..9)
and the default sweep's first rows (seed 1 x 0..24), frozen at the commit
that moved the sampler onto ``runtime.Scenario``.
"""

import pytest

from repro.faults.plan import FaultPlan
from repro.sanitizer.scenarios import KEYSPACE_OPTION, generate_scenario

#: (seed, index) -> (workload, records, batch, key space, nodes, threads,
#: epoch bytes, credits, input seed, fault preset, fault seed, overload).
FROZEN_DRAWS = {
    (7, 0): ('cm', 177, 32, 31, 3, 2, 32768, 4, 291826183, 'cascade', 174077118, None),
    (7, 1): ('nb11', 369, 64, 63, 2, 2, 32768, 4, 1733012213, None, 0, 'probabilistic'),
    (7, 2): ('nb11', 214, 128, 112, 4, 2, 32768, 8, 1264204086, None, 0, None),
    (7, 3): ('nb8', 493, 128, 135, 2, 2, 32768, 4, 1626028273, None, 0, 'fair'),
    (7, 4): ('ysb', 498, 32, 152, 2, 2, 8192, 8, 2029541236, None, 0, None),
    (7, 5): ('nb11', 357, 128, 103, 3, 2, 131072, 8, 1004490704, None, 0, 'fair'),
    (7, 6): ('nb7', 213, 64, 112, 4, 2, 8192, 8, 1426881385, 'credit-starvation', 1872509362, None),
    (7, 7): ('nb11', 447, 32, 24, 2, 2, 131072, 4, 927161599, None, 0, 'fair'),
    (7, 8): ('cm', 270, 32, 184, 3, 2, 131072, 8, 838383360, None, 0, None),
    (7, 9): ('nb8', 220, 128, 185, 4, 2, 131072, 8, 360890339, None, 0, 'fair'),
    (1, 0): ('ysb', 217, 64, 83, 4, 2, 8192, 4, 1992117847, 'leader-crash', 411494801, None),
    (1, 1): ('ysb', 494, 32, 168, 4, 3, 32768, 4, 1375719388, 'buddy-crash', 343501133, None),
    (1, 2): ('nb7', 216, 32, 180, 3, 2, 32768, 4, 1562519194, None, 0, 'probabilistic'),
    (1, 3): ('nb8', 373, 128, 30, 3, 3, 8192, 4, 212969880, None, 0, None),
    (1, 4): ('ysb', 460, 128, 39, 3, 3, 8192, 8, 1569145892, 'leader-crash', 1056437878, None),
    (1, 5): ('nb11', 421, 128, 93, 3, 3, 8192, 8, 562984893, None, 0, None),
    (1, 6): ('nb8', 278, 32, 173, 4, 2, 8192, 4, 703242220, None, 0, None),
    (1, 7): ('nb8', 235, 32, 25, 3, 2, 8192, 8, 688554382, None, 0, 'drop-oldest'),
    (1, 8): ('ysb', 412, 32, 49, 2, 2, 131072, 4, 2039772980, None, 0, None),
    (1, 9): ('nb7', 409, 32, 54, 4, 2, 131072, 8, 441924080, None, 0, 'probabilistic'),
    (1, 10): ('nb8', 474, 64, 66, 3, 2, 8192, 4, 1410024702, None, 0, 'fair'),
    (1, 11): ('nb8', 198, 32, 114, 3, 2, 8192, 4, 717254952, None, 0, 'drop-oldest'),
    (1, 12): ('ysb', 434, 32, 114, 4, 2, 32768, 8, 1523427780, 'stalled-helper', 612566373, 'probabilistic'),
    (1, 13): ('ysb', 500, 128, 116, 2, 3, 8192, 4, 272169170, 'stalled-helper', 1844340738, 'probabilistic'),
    (1, 14): ('cm', 212, 64, 101, 4, 3, 131072, 8, 1890372112, None, 0, None),
    (1, 15): ('nb11', 219, 32, 181, 2, 2, 8192, 8, 1800748639, None, 0, None),
    (1, 16): ('nb8', 251, 32, 27, 3, 2, 32768, 8, 554194551, None, 0, 'probabilistic'),
    (1, 17): ('nb11', 423, 128, 56, 4, 3, 131072, 8, 263605856, None, 0, None),
    (1, 18): ('cm', 189, 64, 34, 3, 3, 8192, 4, 799747130, None, 0, None),
    (1, 19): ('cm', 382, 64, 130, 3, 2, 32768, 8, 693325702, 'duplicate-delta', 1985757769, 'fair'),
    (1, 20): ('nb7', 199, 64, 153, 3, 3, 32768, 4, 1270863649, 'mixed', 368527520, None),
    (1, 21): ('cm', 215, 128, 138, 3, 2, 32768, 4, 1607896324, None, 0, None),
    (1, 22): ('nb11', 337, 64, 152, 2, 3, 131072, 4, 1074611245, None, 0, None),
    (1, 23): ('cm', 341, 64, 23, 4, 2, 32768, 8, 55414631, 'nic-flap', 2002996388, None),
    (1, 24): ('ysb', 470, 32, 21, 3, 3, 8192, 8, 1197876272, 'nic-flap', 1191470481, None),
}


@pytest.mark.parametrize("seed, index", FROZEN_DRAWS)
def test_draw_names_the_same_case_as_before(seed, index):
    case, (preset, fault_seed, _rescale_frac) = generate_scenario(seed, index)
    workload = case.workload_overrides
    assert case.engine == "slash" and case.sanitize
    assert (
        case.workload,
        workload["records_per_thread"],
        workload["batch_records"],
        workload[KEYSPACE_OPTION[case.workload]],
        case.nodes,
        case.threads,
        case.engine_overrides["epoch_bytes"],
        case.engine_overrides["credits"],
        case.seed,
        preset,
        fault_seed,
        case.shed_policy,
    ) == FROZEN_DRAWS[seed, index]


DRAWS = [generate_scenario(seed, index) for seed in (1, 7) for index in range(40)]


def test_the_new_axes_are_live():
    recoveries = {case.recovery_strategy for case, _ in DRAWS}
    assert recoveries == {None, "epoch-buddy", "async-snapshot"}
    actions = {case.rescale_overrides.get("action") for case, _ in DRAWS}
    assert actions == {None, "join", "leave"}


def test_no_draw_leaves_the_scanned_green_space():
    """All-at-once, fault x leave and async-snapshot x crash are red or
    unscanned at HEAD (tests/sanitizer/corpus/known_red.jsonl): expressible
    and replayable, never drawn."""
    for case, (preset, fault_seed, rescale_frac) in DRAWS:
        assert case.migration_strategy == "fluid"
        assert (rescale_frac is not None) == bool(case.rescale_overrides)
        assert (preset is not None) == (case.recovery_strategy is not None)
        if preset is None:
            continue
        assert case.rescale_overrides.get("action") != "leave"
        plan = FaultPlan.preset(preset, fault_seed, case.nodes, 1.0)
        if plan.crash_targets():
            assert case.recovery_strategy == "epoch-buddy"
