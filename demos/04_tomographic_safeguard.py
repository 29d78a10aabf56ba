"""First countermeasure: spend a public fraction of the rounds on state
tomography before signalling.  On the d+1 partner basis pairs, Bob's
outcome fixes Alice's on the real pair.  The attacker's decoy pair
cannot reproduce that, so the pre-test counts the rounds on partner
bases and how many of them read the partner outcome, and aborts on the
first miss."""

from mubsig.harness import EveMode, HarnessConfig, Protocol, run_trials

rounds = 40_000
pre = 0.5


def session(d, seed, eve):
    return run_trials(HarnessConfig(
        d=d, protocol=Protocol.TOMOGRAPHIC, rounds=rounds,
        pretest_fraction=pre, posttest_fraction=0.5, seed=seed,
        eve=EveMode.INTERCEPT if eve else EveMode.OFF))


print(f"{int(rounds * pre)} pre-test rounds per session; correlated rounds fell on a")
print("partner basis pair, and hits read the partner outcome there")
for d in (2, 31):
    print()
    print(f"d = {d}: five clean sessions and five attacked sessions")
    for eve in (False, True):
        label = "attacked" if eve else "clean"
        for seed in range(5):
            report = session(d, 1000 + seed + (500 if eve else 0), eve)
            decision = "ABORT" if report.pretest_abort else "accept"
            print(f"  {label:8s} seed {seed}: correlated {report.pretest_correlated:5d}  "
                  f"hits {report.pretest_hits:5d}  -> {decision}")

print()
print("without channel noise a clean pair never misses, so one miss is")
print("proof of tampering; the attacker's decoy hits with probability 1/d")
print("per correlated round, so she escapes with probability")
print("(1/d)^correlated, at any d.")
