#!/usr/bin/env python3
"""Randomized experiments on the ordered point set of a presentation.

Samples order-law triples, flavour chains, transitivity witnesses, and
stabilizer fixers, and prints one JSON report per experiment in the shape
{experiment, presentation, samples, violations, unresolved, bounds}.
"""

import argparse
import json
import random

from forestskein import corpus, fractions as fr, ordered_action as oa
from forestskein.forest import leaf_count, random_tree, trees_with_carets


def order_laws(p, rng, samples, bound, max_carets):
    violations = unresolved = 0
    for _ in range(samples):
        x, y, z = (oa.random_point(p, rng, max_carets) for _ in range(3))
        c = [oa.compare(x, y, bound), oa.compare(y, z, bound), oa.compare(x, z, bound)]
        if None in c:
            unresolved += 1
            continue
        if c[0] == "LT" and c[1] == "LT" and c[2] != "LT":
            violations += 1
        if oa.compare(y, x, bound) != {"LT": "GT", "GT": "LT", "EQ": "EQ"}[c[0]]:
            violations += 1
    return violations, unresolved


def flavour_chains(p, rng, samples, bound, max_carets):
    violations = unresolved = 0
    trees = [t for k in (1, 2) for t in trees_with_carets(p.colours, k)]
    for _ in range(samples):
        t = rng.choice(trees)
        s = rng.choice([u for u in trees if leaf_count(u) == leaf_count(t)])
        g = oa.from_fraction(fr.GroupElement(t, s, p))
        rep = oa.flavour_check(g, rng, sample_bound=3, bound=bound)
        violations += len(rep.violations)
        unresolved += rep.unresolved
    return violations, unresolved


def transitivity(p, rng, samples, bound, max_carets):
    violations = unresolved = 0
    for _ in range(samples):
        k = rng.choice([1, 2, 3])
        A = oa.random_point_set(p, rng, k, max_carets)
        B = oa.random_point_set(p, rng, k, max_carets)
        g = oa.transitivity_witness(A, B, bound)
        if g is None:
            unresolved += 1
        elif {oa.act(g, x, bound) for x in A} != set(B):
            violations += 1
    return violations, unresolved


def stabilizers(p, rng, samples, bound, max_carets):
    violations = unresolved = 0
    t = random_tree(rng, p.colours, 2)
    pts = oa.stabilizer_generators(p, t).points()
    for _ in range(samples):
        fx = oa.sample_fixer(p, t, rng)
        try:
            if not all(oa.act(fx, x, bound) == x for x in pts):
                violations += 1
        except fr.Unresolved:
            unresolved += 1
    return violations, unresolved


EXPERIMENTS = {
    "order-laws": order_laws,
    "flavour-chains": flavour_chains,
    "transitivity": transitivity,
    "stabilizers": stabilizers,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("presentation", nargs="?", default="cleary")
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--bound", type=int, default=14)
    ap.add_argument("--max-carets", type=int, default=4)
    ap.add_argument("--experiments", default=",".join(EXPERIMENTS))
    args = ap.parse_args()

    p = corpus.load(args.presentation)
    for name in args.experiments.split(","):
        rng = random.Random(args.seed)
        violations, unresolved = EXPERIMENTS[name](
            p, rng, args.samples, args.bound, args.max_carets)
        print(json.dumps({
            "experiment": name,
            "presentation": args.presentation,
            "samples": args.samples,
            "violations": violations,
            "unresolved": unresolved,
            "bounds": {"fraction_bound": args.bound, "max_carets": args.max_carets,
                       "seed": args.seed},
        }, sort_keys=True))


if __name__ == "__main__":
    main()
