"""The CLI's integer subring commands against the Fraction code they
replaced, on seeded inputs: `membership` against in_subring(x / m),
`pigeonhole` against rings_reference.pigeonhole_subset with the sum and
the sum / m added as Fractions, and `refute` against
systems_reference.scan_refute with the d-combination summed from the
reference coefficients.  The tokens hold zero, negative numerators,
unreduced forms and repeats; the prime sets include cofinite ones."""

import random
import re
from collections import Counter
from fractions import Fraction as F

import rings_reference as ref
from conftest import SMALL_PRIMES, random_prime_set, random_subring_element
from radokit.cli import main
from radokit.rings import in_subring
from systems_reference import scan_refute, scan_schedule_value
from test_refute_differential import cases


def prime_arg(primes):
    listed = ",".join(map(str, sorted(primes.primes)))
    if not primes.complement:
        return f"--primes={listed}"
    return f"--primes=all-except:{listed}" if listed else "--primes=all"


def token(rng, x):
    """x as text: its reduced form, or numerator and denominator both
    multiplied by k = 2 or 3."""
    k = rng.choice((1, 1, 2, 3))
    return str(x) if k == 1 else f"{x.numerator * k}/{x.denominator * k}"


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out + err


def test_membership_matches_the_quotient(capsys):
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(600):
        primes = random_prime_set(rng)
        num = rng.randint(-30, 30) if rng.random() < 0.9 else 0
        x = F(num, rng.choice(SMALL_PRIMES) ** rng.randint(0, 2))
        m = rng.choice((1, 2, 3, 6, 10))
        want = in_subring(x / m, primes)
        argv = ["membership", f"--value={token(rng, x)}", prime_arg(primes),
                "--scale", str(m)]
        assert run(capsys, argv) == ((0, "member\n") if want else (1, "not a member\n"))
        seen["member" if want else "not"] += 1
        seen["zero"] += x == 0
        seen["negative"] += x < 0
        seen["cofinite"] += primes.complement
    assert min(seen.values()) >= 40, seen


def test_pigeonhole_matches_the_fraction_reference(capsys):
    rng = random.Random(20261021)
    seen = Counter()
    for _ in range(400):
        m = rng.randint(1, 7)
        primes = random_prime_set(rng)
        pool = [random_subring_element(rng, primes) for _ in range(3)]
        xs = [rng.choice(pool) if rng.random() < 0.5
              else random_subring_element(rng, primes)
              for _ in range((m - 1) ** 2 + rng.randint(0 if m > 1 else 1, 3))]
        outside = [p for p in SMALL_PRIMES if p not in primes]
        if outside and rng.random() < 0.2:
            xs[rng.randrange(len(xs))] = F(rng.choice((1, -1)), rng.choice(outside))
        texts = [token(rng, x) for x in xs]
        if rng.random() < 0.3:
            texts.insert(rng.randrange(len(texts) + 1), " ")  # a blank token
        argv = ["pigeonhole", "--m", str(m), prime_arg(primes),
                "--values=" + ",".join(texts)]
        try:
            indices = ref.pigeonhole_subset(m, primes, xs)
        except ValueError as exc:
            message = re.sub(r"^element (\d+)", lambda g: f"element {int(g[1]) + 1}",
                             str(exc))
            assert run(capsys, argv) == (2, f"error: {message}\n"), argv
            seen["error"] += 1
            continue
        total = sum((xs[i] for i in indices), F(0))
        listed = " ".join(str(i + 1) for i in indices)
        assert run(capsys, argv) == (
            0, f"indices: {listed}\nsum: {total}\nsum / {m}: {total / m}\n"), argv
        seen["single" if len(indices) == 1 else "class"] += 1
        seen["repeated"] += len(set(texts)) < len(texts)
        seen["cofinite"] += primes.complement
    assert min(seen.values()) >= 40, seen


def test_refute_matches_the_scan(capsys):
    """The closed form's n and its printed d-combination, (c.y) / D(n)
    reduced by one gcd, against the scan and the reference coefficients."""
    rng = random.Random(20261022)
    seen = Counter()
    for spec, primes, y in cases(800):
        s = spec.schedule
        schedule = s.kind if s.q is None else f"{s.kind}:{s.q}"
        n_max = rng.choice((1, 2, 5, 24 if s.over_all_primes else 80))
        argv = ["refute", "--alpha", str(spec.alpha), "--depth", str(spec.depth),
                "--schedule", schedule, prime_arg(primes),
                "--y=" + ",".join(token(rng, v) for v in y), "--nmax", str(n_max)]
        n = scan_refute(spec, primes, y, n_max)
        if n is None:
            assert run(capsys, argv) == (1, f"no obstruction for n up to {n_max}\n"), argv
            seen["none"] += 1
            continue
        combo = sum((scan_schedule_value(s, n, i) * v for i, v in enumerate(y, start=1)),
                    F(0))
        assert run(capsys, argv) == (0, f"obstruction at n={n}: d-combination {combo} "
                                        "is outside the subring\n"), argv
        seen["obstruction"] += 1
        seen["cofinite"] += primes.complement
        seen["negative"] += any(v < 0 for v in y)
    assert min(seen.values()) >= 40, seen
