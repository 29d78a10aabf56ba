"""First countermeasure: spend a public fraction of the rounds on state
tomography before signalling.  The attacker's decoy pair cannot fake
the joint statistics of the real pair, so a total-variation test on the
announced pre-test outcomes flags her."""

from mubsig.harness import (
    EveMode,
    HarnessConfig,
    Protocol,
    calibrate_tv_threshold,
    run_trials,
)

d = 2
rounds = 40_000
pre = 0.5
n_pre = int(rounds * pre)

# Calibrate the alarm threshold from the exact reference distribution:
# the 99.9th percentile of undisturbed sampling noise, with headroom.
threshold = calibrate_tv_threshold(d, n_pre, seed=11)
print(f"calibrated TV threshold for {n_pre} pre-test rounds: {threshold:.4f}")
print()


def session(seed, eve):
    return run_trials(HarnessConfig(
        d=d, protocol=Protocol.TOMOGRAPHIC, rounds=rounds,
        pretest_fraction=pre, posttest_fraction=0.5, seed=seed,
        eve=EveMode.INTERCEPT if eve else EveMode.OFF))


print("ten clean sessions and ten attacked sessions:")
for eve in (False, True):
    label = "attacked" if eve else "clean"
    for seed in range(10):
        report = session(1000 + seed + (500 if eve else 0), eve)
        verdict = "ALARM" if report.pretest_divergence > threshold else "pass"
        print(f"  {label:8s} seed {seed}: divergence "
              f"{report.pretest_divergence:.4f}  -> {verdict}")
    print()

print("the attacker sits at an order-one divergence because Bob is")
print("measuring her decoy pair, not the pair Alice prepared; honest")
print("noise shrinks like 1/sqrt(rounds) and stays under the threshold.")
