"""Command-line front end: instance files, verdicts, corpus generation.

Instance files are UTF-8 JSON with every integer and rational carried as a
string ("-3", "1/2") so that exact data never round-trips through floats.
Schema:

    {
      "mode": "free" | "sl",
      "rank": "2",                 -- free mode
      "matrix_size": "3",          -- sl mode
      "q": "1",                    -- required in free mode; in sl mode
      "rep_weights": [["1","0"]],  --   exactly one of q / rep_weights
      "identity_polytope": [["1","1"], ["-1","-1"], ...],
                                   -- free mode only (rationals allowed)
      "frames": [
        {"v_support": [["0","0"]],
         "w_support": [["1","0"], ["-1","0"]],
         "v_coeffs": ["1.0"],      -- optional positive reals
         "w_coeffs": ["2.0", "0.5"]}
      ]
    }

Exit codes: 0 stable, 3 semistable only, 4 unstable, 2 schema or validation
error, 1 internal error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import numeric, stability
from .lattice import InputError, LatticeContext, _Record
from .polytope import RationalPolytope
from .stability import FrameFamily, PairInstance, StabilityVerdict, WeightSupport

EXIT_STABLE = 0
EXIT_INTERNAL = 1
EXIT_SCHEMA = 2
EXIT_SEMISTABLE_ONLY = 3
EXIT_UNSTABLE = 4


class SchemaError(ValueError):
    """Instance file violates the schema; message carries the field path."""


# ---------------------------------------------------------------------------
# Parsing

def _fail(where: str, message: str):
    raise SchemaError(f"{where}: {message}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        _fail(where, "expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            _fail(where, f"not an integer: {value!r}")
    _fail(where, f"expected an integer or integer string, got {type(value).__name__}")


def _as_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool):
        _fail(where, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(where, f"not a rational: {value!r}")
    _fail(where, f"expected a rational string like '1/2', got {type(value).__name__}")


def _as_positive_float(value, where: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        _fail(where, f"not a real number: {value!r}")
    if not out > 0:
        _fail(where, "coefficients must be positive")
    return out


def _int_vector(value, where: str, dim: int) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        _fail(where, "expected a nonempty list of integers")
    vec = tuple(_as_int(c, f"{where}[{i}]") for i, c in enumerate(value))
    if len(vec) != dim:
        _fail(where, f"vector of length {len(vec)}, expected {dim}")
    return vec


def _vector_list(value, where: str, dim: int) -> list[tuple[int, ...]]:
    if not isinstance(value, list) or not value:
        _fail(where, "expected a nonempty list of integer vectors")
    return [_int_vector(v, f"{where}[{i}]", dim) for i, v in enumerate(value)]


class Instance(_Record):
    """A parsed, fully validated instance file.

    Unlike the package's value objects it is mutable and unhashable; it
    compares and prints by its fields all the same.
    """

    __slots__ = _fields = ("context", "q", "identity", "family",
                           "ordered_supports", "coefficients")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        context: LatticeContext,
        q: int,
        identity: RationalPolytope | None,
        family: FrameFamily,
        ordered_supports: list[tuple[list[tuple[int, ...]], list[tuple[int, ...]]]],
        coefficients: list[tuple[numeric.CoefficientVector, numeric.CoefficientVector]],
    ):
        self.context = context
        self.q = q
        self.identity = identity
        self.family = family
        self.ordered_supports = ordered_supports
        self.coefficients = coefficients


def instance_from_dict(data) -> Instance:
    if not isinstance(data, dict):
        _fail("$", "instance file must be a JSON object")
    mode = data.get("mode")
    if mode not in ("free", "sl"):
        _fail("mode", f"must be 'free' or 'sl', got {mode!r}")

    known = {"mode", "rank", "matrix_size", "q", "rep_weights",
             "identity_polytope", "frames"}
    for key in data:
        if key not in known:
            _fail(key, "unknown field")

    if mode == "free":
        if "rank" not in data:
            _fail("rank", "required in free mode")
        if "matrix_size" in data:
            _fail("matrix_size", "not allowed in free mode")
        dim = _as_int(data["rank"], "rank")
        if dim < 1:
            _fail("rank", "must be positive")
        ctx = LatticeContext.free(dim)
    else:
        if "matrix_size" not in data:
            _fail("matrix_size", "required in sl mode")
        if "rank" in data:
            _fail("rank", "not allowed in sl mode")
        dim = _as_int(data["matrix_size"], "matrix_size")
        if dim < 2:
            _fail("matrix_size", "must be at least 2")
        ctx = LatticeContext.sl(dim)

    identity = None
    if mode == "free":
        if "rep_weights" in data:
            _fail("rep_weights", "only available in sl mode")
        if "q" not in data:
            _fail("q", "required in free mode")
        q = _as_int(data["q"], "q")
        raw_identity = data.get("identity_polytope")
        if not isinstance(raw_identity, list) or not raw_identity:
            _fail("identity_polytope", "required in free mode (nonempty point list)")
        points = []
        for i, pt in enumerate(raw_identity):
            where = f"identity_polytope[{i}]"
            if not isinstance(pt, list) or len(pt) != dim:
                _fail(where, f"expected a vector of length {dim}")
            points.append(tuple(_as_fraction(c, f"{where}[{j}]")
                                for j, c in enumerate(pt)))
        identity = RationalPolytope(points)
    else:
        if "identity_polytope" in data:
            _fail("identity_polytope", "forbidden in sl mode (always the standard simplex)")
        has_q = "q" in data
        has_rep = "rep_weights" in data
        if has_q == has_rep:
            _fail("q", "sl mode needs exactly one of q / rep_weights")
        if has_q:
            q = _as_int(data["q"], "q")
        else:
            rep = _vector_list(data["rep_weights"], "rep_weights", dim)
            q = stability.deg_of_V(WeightSupport(rep, ctx), ctx)
    if q < 1:
        _fail("q", "must be a positive integer")

    raw_frames = data.get("frames")
    if not isinstance(raw_frames, list) or not raw_frames:
        _fail("frames", "expected a nonempty list")

    frames = []
    ordered = []
    coefficients = []
    for k, fr in enumerate(raw_frames):
        where = f"frames[{k}]"
        if not isinstance(fr, dict):
            _fail(where, "expected an object")
        for key in fr:
            if key not in ("v_support", "w_support", "v_coeffs", "w_coeffs"):
                _fail(f"{where}.{key}", "unknown field")
        if "v_support" not in fr or "w_support" not in fr:
            _fail(where, "v_support and w_support are required")
        v_list = _vector_list(fr["v_support"], f"{where}.v_support", dim)
        w_list = _vector_list(fr["w_support"], f"{where}.w_support", dim)

        def coeffs_for(tag: str, support: list) -> list[float]:
            raw = fr.get(tag)
            if raw is None:
                return [1.0] * len(support)
            if not isinstance(raw, list) or len(raw) != len(support):
                _fail(f"{where}.{tag}",
                      f"expected {len(support)} positive reals")
            return [_as_positive_float(c, f"{where}.{tag}[{i}]")
                    for i, c in enumerate(raw)]

        v_coeffs = coeffs_for("v_coeffs", v_list)
        w_coeffs = coeffs_for("w_coeffs", w_list)

        try:
            Av = WeightSupport(v_list, ctx)
            Aw = WeightSupport(w_list, ctx)
            pair_instance = PairInstance(Av, Aw, q, identity)
            cv = numeric.CoefficientVector.from_pairs(zip(v_list, v_coeffs), ctx)
            cw = numeric.CoefficientVector.from_pairs(zip(w_list, w_coeffs), ctx)
        except InputError as exc:
            _fail(where, str(exc))
        frames.append(pair_instance)
        ordered.append((v_list, w_list))
        coefficients.append((cv, cw))

    return Instance(ctx, q, identity, FrameFamily(frames), ordered, coefficients)


def load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested too deeply, or an integer past the digit limit
        raise SchemaError(f"{path}: unreadable JSON: {exc}") from exc
    return instance_from_dict(data)


# ---------------------------------------------------------------------------
# Output helpers

def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _verdict_payload(v: StabilityVerdict) -> dict:
    payload: dict = {"semistable": v.semistable, "stable": v.stable}
    if v.uniform_m is not None:
        payload["uniform_m"] = v.uniform_m
    if v.witness is not None:
        payload["witness"] = list(v.witness)
    if v.frame_index is not None:
        payload["frame_index"] = v.frame_index
    return payload


def _violated_clause(v: StabilityVerdict) -> str | None:
    if v.witness is None:
        return None
    return "semistability" if not v.semistable else "stability"


def _print_verdict(v: StabilityVerdict, fmt: str):
    if fmt == "json":
        print(_dump_json(_verdict_payload(v)))
        return
    print(f"semistable: {'yes' if v.semistable else 'no'}")
    print(f"stable: {'yes' if v.stable else 'no'}")
    if v.uniform_m is not None:
        print(f"uniform m: {v.uniform_m}")
    if v.witness is not None:
        clause = _violated_clause(v)
        print(f"witness: {list(v.witness)} (violates {clause}, frame {v.frame_index})")


# ---------------------------------------------------------------------------
# Commands

def _cmd_check(args) -> int:
    inst = load_instance(args.path)
    v = stability.verdict(inst.family)
    _print_verdict(v, args.format)
    if v.stable:
        return EXIT_STABLE
    return EXIT_SEMISTABLE_ONLY if v.semistable else EXIT_UNSTABLE


def _cmd_min_m(args) -> int:
    inst = load_instance(args.path)
    v = stability.verdict(inst.family)
    if args.format == "json":
        print(_dump_json({"uniform_m": v.uniform_m}))
    else:
        print(v.uniform_m if v.uniform_m is not None else "none")
    return 0


def _cmd_witness(args) -> int:
    inst = load_instance(args.path)
    v = stability.verdict(inst.family)
    clause = _violated_clause(v)
    if args.format == "json":
        payload = {"witness": list(v.witness) if v.witness else None}
        if clause:
            payload["clause"] = clause
            payload["frame_index"] = v.frame_index
        print(_dump_json(payload))
        return 0
    if v.witness is None:
        print("none")
    elif clause == "semistability":
        print(f"witness: {list(v.witness)} violates semistability "
              f"(w_lam(w) > w_lam(v)) on frame {v.frame_index}")
    else:
        print(f"witness: {list(v.witness)} violates stability "
              f"(w_lam(v) = w_lam(w) while q*w_lam(I) < w_lam(v)) "
              f"on frame {v.frame_index}")
    return 0


def find_degeneration(prob):
    """``degeneration.find_degeneration``, imported on first use: only the
    degenerate command needs that module.  Looked up by this name at call
    time, so it can be wrapped here."""
    from .degeneration import find_degeneration as find

    return find(prob)


def _cmd_degenerate(args) -> int:
    from .degeneration import DegenerationProblem

    inst = load_instance(args.path)
    if not 0 <= args.frame < len(inst.family.frames):
        raise SchemaError(f"--frame {args.frame} out of range")
    v_list, _ = inst.ordered_supports[args.frame]
    keep = []
    for i in args.keep:
        if not 1 <= i <= len(v_list):
            raise SchemaError(
                f"--keep index {i} out of range 1..{len(v_list)}"
            )
        keep.append(i - 1)
    prob = DegenerationProblem(v_list, keep, inst.context)
    lam = find_degeneration(prob)
    if args.format == "json":
        print(_dump_json({"direction": list(lam) if lam else None}))
    else:
        print(json.dumps(list(lam)) if lam is not None else "unreachable")
    return 0


def _cmd_slope(args) -> int:
    inst = load_instance(args.path)
    if not 0 <= args.frame < len(inst.family.frames):
        raise SchemaError(f"--frame {args.frame} out of range")
    frame = inst.family.frames[args.frame]
    cv, cw = inst.coefficients[args.frame]
    try:
        lam = inst.context.check_one_param(args.lam)
    except InputError as exc:
        raise SchemaError(f"--lambda: {exc}") from exc
    slope = numeric.slope_along(lam, cv, cw)
    exact = stability.weight(lam, frame.Aw) - stability.weight(lam, frame.Av)
    if args.format == "json":
        print(_dump_json({"slope": slope, "exact": exact}))
    else:
        print(f"slope ≈ {slope:.6f}; exact {exact}")
    return 0


def _cmd_corpus(args) -> int:
    if args.dim < 1:
        raise SchemaError("--dim must be positive")
    if args.max_coord < 1:
        raise SchemaError("--max-coord must be positive")
    if args.count < 1:
        raise SchemaError("--count must be positive")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot create --out directory {out_dir}: {exc}") from exc
    rng = random.Random(args.seed)
    for i in range(args.count):
        data = random_instance_dict(rng, args.dim, args.max_coord)
        path = out_dir / f"corpus-{args.seed}-{i:03d}.json"
        try:
            path.write_text(json.dumps(data, sort_keys=True, indent=2) + "\n",
                            encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"cannot write {path}: {exc}") from exc
        print(path)
    return 0


# ---------------------------------------------------------------------------
# Random instances (reproducible from the caller's rng)

_IDENTITY_SHAPES = ("box", "diamond")


def _identity_points(shape: str, dim: int) -> list[tuple[int, ...]]:
    if shape == "box":
        return [tuple(s) for s in itertools.product((-1, 1), repeat=dim)]
    points = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        points.append(tuple(e))
        e2 = [0] * dim
        e2[i] = -1
        points.append(tuple(e2))
    return points


def _free_q(shape: str, weights) -> int:
    """Least q >= 1 with every weight inside q times the unit box (max
    absolute coordinate) or the unit diamond (l1 norm)."""
    norm = max if shape == "box" else sum
    return max([1] + [norm(abs(c) for c in a) for a in weights])


def _random_support(rng: random.Random, dim: int, max_coord: int) -> list:
    size = rng.randint(1, 4)
    return [tuple(rng.randint(-max_coord, max_coord) for _ in range(dim))
            for _ in range(size)]


def random_instance_dict(rng: random.Random, dim: int, max_coord: int) -> dict:
    """One schema-valid random instance; reproducible from the rng state."""
    mode = rng.choice(("free", "sl")) if dim >= 2 else "free"
    n_frames = 1 if rng.random() < 0.8 else 2

    frames = []
    supports = []
    for _ in range(n_frames):
        v = _random_support(rng, dim, max_coord)
        w = _random_support(rng, dim, max_coord)
        supports.append((v, w))
        frames.append({
            "v_support": [[str(c) for c in a] for a in v],
            "w_support": [[str(c) for c in a] for a in w],
        })

    if mode == "free":
        shape = rng.choice(_IDENTITY_SHAPES)
        q = _free_q(shape, [a for v, _ in supports for a in v])
        return {
            "mode": "free",
            "rank": str(dim),
            "q": str(q),
            "identity_polytope": [[str(c) for c in pt]
                                  for pt in sorted(_identity_points(shape, dim))],
            "frames": frames,
        }

    ctx = LatticeContext.sl(dim)
    rep = sorted({a for v, w in supports for a in v + w})
    q = stability.deg_of_V(WeightSupport(rep, ctx), ctx)
    data = {"mode": "sl", "matrix_size": str(dim), "frames": frames}
    if rng.random() < 0.5:
        data["q"] = str(q)
    else:
        data["rep_weights"] = [[str(c) for c in a] for a in rep]
    return data


# ---------------------------------------------------------------------------
# Entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepairs",
        description="Decide K-semistability, K-stability and uniform "
                    "K-stability of weighted pairs, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def int_list(text: str) -> list[int]:
        try:
            return [int(part, 10) for part in text.split(",") if part != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")

    p = sub.add_parser("check", help="full stability verdict with exit code")
    p.add_argument("path")
    add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("min-m", help="minimal uniform stability integer")
    p.add_argument("path")
    add_format(p)
    p.set_defaults(func=_cmd_min_m)

    p = sub.add_parser("witness", help="certifying direction and violated clause")
    p.add_argument("path")
    add_format(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("degenerate",
                       help="direction reaching a prescribed limit support")
    p.add_argument("path")
    p.add_argument("--keep", type=int_list, required=True,
                   help="1-based indices into the frame's v_support")
    p.add_argument("--frame", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_degenerate)

    p = sub.add_parser("slope", help="numeric slope along a subgroup vs exact")
    p.add_argument("path")
    p.add_argument("--lambda", dest="lam", type=int_list, required=True,
                   help="comma-separated integer direction; write --lambda=-1,0 "
                        "when it starts with a minus sign")
    p.add_argument("--frame", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_slope)

    p = sub.add_parser("corpus", help="emit random schema-valid instance files")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--max-coord", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
