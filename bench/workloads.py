"""Seeded op lists for the benchmark workloads.

An op is an argv for ``quiddity.cli.main`` plus the exit code it must
end with.  The same (workload, seed, cache directory) always gives the
same list.  Sizes are stratified: every session holds a fixed number of
ops from each size band and the seed picks the members and the order,
so the total work varies little from seed to seed while the inputs
still vary.
"""
from __future__ import annotations

import json
import random
from typing import NamedTuple

from oracles import chord_degree_quiddity, dissection_count, fmt, parse, size_filter, surgery_moves


class Op(NamedTuple):
    argv: tuple[str, ...]
    expect: int = 0


# Cell-size weights of the random dissection generators.  3-periodic
# dissections favour triangles and hexagons so that surgeries exist.
WEIGHTS_3P = {3: 10, 6: 8, 9: 1}
WEIGHTS_ANY = {3: 4, 4: 3, 5: 2, 6: 1}


def random_dissection(rng: random.Random, n_vertices: int, weights: dict[int, int]) -> str:
    """Grow a dissection cell by cell: start from one cell, then glue a
    new cell onto a uniformly chosen boundary edge (which becomes a
    chord) until the polygon has ``n_vertices`` vertices.  Sizes are
    drawn by ``weights`` among those that still fit; triangles always
    fit, so every target is reached."""
    def draw(room: int) -> int:
        sizes = [t for t in weights if t - 2 <= room]
        return rng.choices(sizes, [weights[t] for t in sizes])[0]

    boundary = list(range(draw(n_vertices - 2)))
    next_id = len(boundary)
    chords = []
    while len(boundary) < n_vertices:
        t = draw(n_vertices - len(boundary))
        k = rng.randrange(len(boundary))
        chords.append((boundary[k], boundary[(k + 1) % len(boundary)]))
        boundary[k + 1:k + 1] = range(next_id, next_id + t - 2)
        next_id += t - 2
    offset = rng.randrange(n_vertices)
    label = {vid: (pos + offset) % n_vertices for pos, vid in enumerate(boundary)}
    return fmt(n_vertices, (tuple(sorted((label[u], label[v]))) for u, v in chords))


def _zipf_pick(rng: random.Random, pool: list):
    """Draw from ``pool`` with weight 1/rank^1.1 (popular keys repeat)."""
    return rng.choices(pool, [1 / (r + 1) ** 1.1 for r in range(len(pool))])[0]


# ------------------------------------------------------------------ families

# filters whose dissection counts have a closed form (besides one equal size)
CLOSED_FORM_FILTERS = [(), ("--ell", "2"), ("--ell", "3"), ("--sizes", "3,4")]
# ops per session: verb -> [(fewest, most dissections in the family, ops)]
FAMILY_MIX = {
    "enumerate": [(10, 150, 24), (150, 400, 4), (400, 1_000, 3), (1_400, 2_100, 8),
                  (12_000, 17_000, 1)],
    "quiddities": [(10, 150, 14), (150, 400, 2), (400, 600, 2)],
    "classes": [(10, 150, 14), (150, 400, 2), (400, 600, 2), (1_400, 2_100, 1)],
}


def _family_candidates() -> list[tuple[int, int, tuple[str, ...], int, bool]]:
    """(N, m, filter flags, size, has a quiddity closed form) for every
    family with N in 8..14 under a filter with a closed-form count."""
    out = []
    for n_vertices in range(8, 15):
        n = n_vertices - 2
        equal_sizes = [("--sizes", str(n // m + 2)) for m in range(2, n + 1) if n % m == 0]
        for flag in CLOSED_FORM_FILTERS + equal_sizes:
            allowed = size_filter(dict(zip(flag[::2], flag[1::2])))
            has_quiddity_form = flag in equal_sizes or flag == ("--ell", "3")
            for m in range(1, n + 1):
                size = dissection_count(n_vertices, m, allowed)
                if size:
                    out.append((n_vertices, m, flag, size, has_quiddity_form))
    return out


# The jobs come from this fixed seed and the run seed orders them: a
# family's cost depends on its filter and N as much as on its size, so
# seeded jobs moved the session time by about 15% from seed to seed.
JOB_SEED = "families-jobs"


def families(seed: int) -> list[Op]:
    """Enumeration-heavy session: streamed ``enumerate``, uncached
    ``quiddities``, materialising ``classes``, one ``verify-all``."""
    jobs = random.Random(JOB_SEED)
    candidates = _family_candidates()
    ops = [Op(("verify-all", "--scope", "fast"))]
    for verb, buckets in FAMILY_MIX.items():
        for lo, hi, count in buckets:
            pool = [c for c in candidates if lo <= c[3] < hi and (verb != "quiddities" or c[4])]
            for n_vertices, m, flag, _, _ in jobs.choices(pool, k=count):
                extra = ("--no-cache",) if verb == "quiddities" else ()
                ops.append(Op((verb, "--n", str(n_vertices), "--m", str(m), *flag, *extra)))
    random.Random(f"families:{seed}").shuffle(ops)
    return ops


# ------------------------------------------------------------------- surgery

# ops per session: (action, N range, count)
SURGERY_MIX = [
    ("canon", (24, 42), 180),
    ("moves", (24, 42), 30),
    ("apply", (24, 42), 30),
    ("class", (24, 33), 18),
]
# The dissection shapes come from this fixed seed, so every run seed
# meets the same surgery classes and does the same amount of work; the
# run seed picks each shape's rotation and reflection, the move an
# ``apply`` removes, and the op order.
SHAPE_SEED = "surgery-shapes"


def dihedral_image(text: str, rotation: int, reflect: bool) -> str:
    n, chords = parse(text)

    def image(v: int) -> int:
        return ((-v if reflect else v) + rotation) % n

    return fmt(n, (tuple(sorted((image(i), image(j)))) for i, j in chords))


def surgery(seed: int) -> list[Op]:
    """Surgery on random 3-periodic dissections, no enumeration."""
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(f"surgery:{seed}")
    ops = []
    for action, (lo, hi), count in SURGERY_MIX:
        for _ in range(count):
            shape = random_dissection(shapes, shapes.randint(lo, hi), WEIGHTS_3P)
            # ``apply`` removes a move ``surgery moves`` would list, so
            # its shape must have one
            while action == "apply" and not surgery_moves(*parse(shape)):
                shape = random_dissection(shapes, shapes.randint(lo, hi), WEIGHTS_3P)
            text = dihedral_image(shape, rng.randrange(parse(shape)[0]), rng.random() < 0.5)
            if action == "canon":
                ops.append(Op(("surgery", "canon", text)))
            elif action in ("moves", "class"):
                ops.append(Op(("surgery", action, text, "--require-3p")))
            else:
                removed = rng.choice(surgery_moves(*parse(text)))[1]
                ops.append(Op(("surgery", "apply", text, "--remove",
                               ",".join(f"{i}-{j}" for i, j in removed))))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- queries

# Largest N per filter; each session counts once at this size so the
# cold counting table costs the same in every session.
COUNT_TOP = {(): 24, ("--ell", "2"): 28, ("--ell", "3"): 32, ("--sizes", "3,4"): 32}
SERIES = ["catalan", "kirkman-cayley", "ell-periodic", "tri-quad", "p", "q"]
FORMULAS = ["catalan", "kirkman-cayley", "fuss", "ell-periodic", "tri-quad", "quiddity-3p"]
QUERY_MIX = {"count": 50, "quiddities": 25, "formula": 30, "table": 10, "of": 25,
             "modular": 15, "malformed": 10}
CF_MIX = {"regular": 8, "hj": 4, "convert": 4, "strip": 4}


def _count_keys(rng: random.Random) -> list[tuple[str, ...]]:
    keys = []
    for flag in CLOSED_FORM_FILTERS + [("--sizes", "5"), ("--sizes", "6")]:
        k = int(flag[1]) if flag and flag[0] == "--sizes" and "," not in flag[1] else None
        for n_vertices in range(8, COUNT_TOP.get(flag, 33) + 1):
            for m in range(1, n_vertices - 1):
                if k and (n_vertices - 2) != m * (k - 2):
                    continue
                keys.append(("count", "--n", str(n_vertices), "--m", str(m), *flag))
    rng.shuffle(keys)
    return keys[:60]


def _formula_args(rng: random.Random, name: str) -> list[int]:
    n = rng.randint(4, 40)
    if name == "catalan":
        return [n]
    if name == "fuss":
        m = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        return [n, m]
    m = rng.randint(1, n)
    if name == "ell-periodic":
        return [n, m, rng.randint(1, 4)]
    return [n, m]


def _malformed(rng: random.Random) -> Op:
    """A refused query: usage errors exit 2, domain errors exit 1."""
    n = rng.randint(6, 12)
    templates = [
        Op(("frobnicate", "--n", str(n)), 2),
        Op(("count", "--n", str(n)), 2),
        Op(("count", "--n", "x" * (n % 3 + 1), "--m", "2"), 2),
        Op(("series", "hexagonal", "--order", str(n)), 2),
        Op(("count", "--n", str(n), "--m", str(n - 1)), 1),
        Op(("count", "--n", str(n), "--m", "2", "--ell", "3", "--sizes", "3,4"), 1),
        Op(("quiddities", "--n", str(n), "--m", "2", "--sizes", f"3,{n}x"), 1),
        Op(("of", f"{n}:1-{n - 2},2-{n - 1}"), 1),
        Op(("of", f"{n}:1-{n + 3}"), 1),
        Op(("formula", "catalan", str(n), str(n)), 1),
        Op(("formula", "fuss", str(n), str(n - 1)), 1),
        Op(("series", "ell-periodic", "--order", str(n)), 1),
        Op(("cf", "eval", "--regular", ",".join(["1"] * (2 * (n % 3) + 1))), 1),
        Op(("cf", "eval", "--hj", f"{n},1"), 1),
        Op(("modular", "product", f"{n},0,1"), 1),
    ]
    return rng.choice(templates)


def queries(seed: int, cache_dir: str) -> list[Op]:
    """Short interactive queries through the result cache."""
    rng = random.Random(f"queries:{seed}")
    cache = ("--cache-dir", cache_dir)
    ops: list[Op] = []

    count_keys = _count_keys(rng)
    for flag, top in COUNT_TOP.items():
        ops.append(Op(("count", "--n", str(top), "--m", str(rng.randint(2, top // 2)), *flag, *cache)))
    for _ in range(QUERY_MIX["count"] - len(COUNT_TOP)):
        ops.append(Op(_zipf_pick(rng, count_keys) + cache))

    quiddity_keys = []
    for n_vertices in range(6, 9):
        for m in range(1, n_vertices - 1):
            if (n_vertices - 2 - m) % 3 == 0:
                quiddity_keys.append(("--n", str(n_vertices), "--m", str(m), "--ell", "3"))
            if (n_vertices - 2) % m == 0:
                k = (n_vertices - 2) // m + 2
                quiddity_keys.append(("--n", str(n_vertices), "--m", str(m), "--sizes", str(k)))
    rng.shuffle(quiddity_keys)
    for _ in range(QUERY_MIX["quiddities"]):
        ops.append(Op(("quiddities", *_zipf_pick(rng, quiddity_keys), *cache)))

    formula_keys = [(name, *map(str, _formula_args(rng, name))) for name in FORMULAS for _ in range(6)]
    rng.shuffle(formula_keys)
    for _ in range(QUERY_MIX["formula"]):
        ops.append(Op(("formula", *_zipf_pick(rng, formula_keys), *cache)))

    table_keys = [str(n) for n in rng.sample(range(14, 61), 8)]
    for _ in range(QUERY_MIX["table"]):
        ops.append(Op(("table", "--max-n", _zipf_pick(rng, table_keys), *cache)))

    # every equation at four fixed orders: the series ops cost the same
    # in every session, and the 95th percentile falls among them
    for order in (8, 12, 14, 16):
        for eq in SERIES:
            extra = ("--ell", str(order % 3 + 2)) if eq == "ell-periodic" else ()
            ops.append(Op(("series", eq, "--order", str(order), *extra)))

    for _ in range(QUERY_MIX["of"]):
        text = random_dissection(rng, rng.randint(6, 20), WEIGHTS_ANY)
        ops.append(Op(("of", text, *(("--json",) if rng.random() < 0.3 else ()))))

    for action, count in CF_MIX.items():
        for _ in range(count):
            terms = ",".join(str(rng.randint(1, 5)) for _ in range(2 * rng.randint(1, 4)))
            if action == "hj":  # any terms >= 2
                hj = ",".join(str(rng.randint(2, 6)) for _ in range(rng.randint(1, 6)))
                ops.append(Op(("cf", "eval", "--hj", hj)))
            elif action == "regular":
                json_flag = ("--json",) if rng.random() < 0.3 else ()
                ops.append(Op(("cf", "eval", "--regular", terms, *json_flag)))
            else:
                ops.append(Op(("cf", action, terms)))

    for _ in range(QUERY_MIX["modular"]):
        if rng.random() < 0.5:
            # a 3-periodic quiddity: the product is plus or minus the identity
            cs = chord_degree_quiddity(*parse(random_dissection(rng, rng.randint(5, 16), WEIGHTS_3P)))
        else:
            cs = [rng.randint(1, 4) for _ in range(rng.randint(3, 12))]
        ops.append(Op(("modular", rng.choice(["classify", "product"]), ",".join(map(str, cs)))))

    ops.extend(_malformed(rng) for _ in range(QUERY_MIX["malformed"]))
    rng.shuffle(ops)
    # The first count of each filter asks for its largest N, so the cold
    # counting table is built by one op of the same size in every session.
    for flag, top in COUNT_TOP.items():
        counts = [i for i, op in enumerate(ops)
                  if op.argv[0] == "count" and op.expect == 0 and _filter_of(op.argv) == flag]
        biggest = next(i for i in counts if ops[i].argv[2] == str(top))
        ops[counts[0]], ops[biggest] = ops[biggest], ops[counts[0]]
    return ops


def _filter_of(argv) -> tuple[str, ...]:
    for flag in ("--ell", "--sizes"):
        if flag in argv:
            return (flag, argv[argv.index(flag) + 1])
    return ()


def make_ops(workload: str, seed: int, cache_dir: str) -> list[Op]:
    if workload == "families":
        return families(seed)
    if workload == "surgery":
        return surgery(seed)
    if workload == "queries":
        return queries(seed, cache_dir)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("families", "surgery", "queries")


def dissections_emitted(op: Op, out: str) -> int:
    """Dissections an op wrote to stdout (the numerator of
    ``dissections_per_s``)."""
    verb, action = (op.argv + ("",))[:2]
    if op.expect:
        return 0
    if verb == "enumerate":
        return out.count("\n")
    if verb == "classes":
        return sum(len(members) for members in json.loads(out).values())
    if (verb, action) == ("surgery", "class"):
        return len(json.loads(out)["members"])
    if (verb, action) in (("surgery", "canon"), ("surgery", "apply"), ("cf", "strip")):
        return 1
    return 0
