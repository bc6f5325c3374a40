"""Command-line front end.

Reads and writes the JSON fan file format, prints one JSON document per
command on standard output (DOT for ``graph --dot``), and encodes verdicts in
the exit status: 0 success, 1 a requested assertion failed (``--expect-*``)
or ``search`` found no projective fan, 2 malformed input, 3 an internal
consistency check failed (such as a certificate that does not re-verify),
which is a bug in this package. Every rejection, whether argparse's, a
value converter's, an unwritable ``--output`` or a command's own, is a
`FanError` that `main` prints as one stderr line before returning 2. Ray
indices inside documents are 0-based; arguments such as ``--wall 1,7`` and
``--ray 2`` use the 1-based v1..vN labels that also appear in ``label``
fields; a negative vector such as ``--ray -1,-2,-2`` may follow a space.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from . import catalog, fanio
from .enumeration import enumerate_smooth_complete_fans
from .errors import FanError
from .fan import (
    contract_ray,
    is_complete,
    is_smooth,
    picard_number,
    primitive_collections,
    primitive_relations,
    star_subdivide,
    walls,
)
from .projectivity import (
    effective_ample_obstruction,
    is_projective,
    nontrivial_nef_exists,
)
from .search import projectivize, surgery_graph
from .surgery import classify_wall, find_wall, perform_surgery

EXIT_OK = 0
EXIT_EXPECTATION_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _emit(doc) -> None:
    sys.stdout.write(fanio.dumps(doc))


# The `_parse_*` converters raise FanError, which argparse passes through
# unchanged, so a rejected value reaches `main` with its own message.
def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise FanError(f"expected true or false, got {text!r}")


def _parse_label_indices(text: str) -> tuple[int, ...]:
    try:
        labels = tuple(int(part) for part in text.replace(" ", "").split(","))
    except ValueError:
        raise FanError(f"expected 1-based ray labels like 1,7, got {text!r}") from None
    if any(i < 1 for i in labels):
        raise FanError(f"ray labels are 1-based, got {text!r}")
    return tuple(i - 1 for i in labels)


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(" ", "").split(","))
    except ValueError:
        raise FanError(f"expected integers like 1,1,1, got {text!r}") from None


def _parse_params(fam: catalog.CatalogFamily, text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    if not fam.param_names:
        raise FanError(f"{fam.family_id} takes no --params")
    usage = f"{fam.family_id} takes --params " + ",".join(
        n + "=<int>" for n in fam.param_names
    )
    values: dict[str, int] = {}
    for part in text.split(","):
        name, sep, raw = part.partition("=")
        name = name.strip()
        if not sep or name not in fam.param_names or name in values:
            raise FanError(usage)
        try:
            values[name] = int(raw)
        except ValueError:
            raise FanError(usage)
    return tuple(values[n] for n in fam.param_names if n in values)


def _write_fan(fan, path) -> None:
    if path:
        fanio.save_fan(fan, path)


def cmd_check(args) -> int:
    try:
        fan = fanio.load_fan(args.fanfile)
    except FanError as exc:
        _emit({"valid": False, "error": str(exc)})
        print(exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    doc = {
        "indexing": fanio.INDEXING_NOTE,
        "valid": True,
        "simplicial": True,
        "smooth": is_smooth(fan),
        "complete": is_complete(fan),
        "projective": None,
        "picard_number": None,
        "wall_count": None,
    }
    if doc["complete"]:
        projective, certificate = is_projective(fan)
        doc["projective"] = projective
        doc["picard_number"] = picard_number(fan)
        # on a complete fan every 2-face is a wall
        doc["wall_count"] = len(fan.face_census)
        if args.certificate:
            doc["certificate"] = fanio.certificate_to_doc(certificate)
            if doc["smooth"]:
                # an ample class made strictly effective by a linear shift solves the LP
                witness = None if projective else effective_ample_obstruction(fan)
                doc["effective_ample_obstruction"] = (
                    fanio.obstruction_to_doc(witness) if witness else None
                )
        if args.nef:
            # an ample class is a nontrivial nef one, so skip the LP
            doc["nontrivial_nef_exists"] = projective or nontrivial_nef_exists(fan)
    _emit(doc)
    if args.expect_projective is not None and doc["projective"] != args.expect_projective:
        print(
            f"expected projective={args.expect_projective}, got {doc['projective']}",
            file=sys.stderr,
        )
        return EXIT_EXPECTATION_FAILED
    return EXIT_OK


def cmd_collections(args) -> int:
    fan = fanio.load_fan(args.fanfile)
    doc = {
        "indexing": fanio.INDEXING_NOTE,
        "collections": [
            {"rays": list(col), "label": fanio.cone_label(col)}
            for col in primitive_collections(fan)
        ],
    }
    _emit(doc)
    return EXIT_OK


def cmd_relations(args) -> int:
    fan = fanio.load_fan(args.fanfile)
    relations = [
        {
            "collection": list(rel.collection),
            "label": fanio.cone_label(rel.collection),
            "fiber_type": rel.is_fiber_type,
            "target_rays": list(rel.target_rays),
            "coefficients": list(rel.coefficients),
        }
        for rel in primitive_relations(fan)
    ]
    _emit({"indexing": fanio.INDEXING_NOTE, "relations": relations})
    return EXIT_OK


def cmd_walls(args) -> int:
    fan = fanio.load_fan(args.fanfile)
    out = []
    for wall in walls(fan):
        cls = classify_wall(fan, wall)
        doc = fanio.wall_to_doc(wall)
        doc["kind"] = cls.kind.value
        doc["degree"] = cls.degree
        out.append(doc)
    _emit({"indexing": fanio.INDEXING_NOTE, "walls": out})
    return EXIT_OK


def cmd_surgery(args) -> int:
    fan = fanio.load_fan(args.fanfile)
    wall = find_wall(fan, args.wall)
    result, step = perform_surgery(fan, wall)
    _write_fan(result, args.output)
    _emit(
        {
            "indexing": fanio.INDEXING_NOTE,
            "step": fanio.step_to_doc(step),
            "fan": fanio.fan_to_doc(result),
        }
    )
    return EXIT_OK


def cmd_subdivide(args) -> int:
    fan = fanio.load_fan(args.fanfile)
    result = star_subdivide(fan, args.ray)
    _write_fan(result, args.output)
    _emit({"indexing": fanio.INDEXING_NOTE, "fan": fanio.fan_to_doc(result)})
    return EXIT_OK


def cmd_contract(args) -> int:
    fan = fanio.load_fan(args.fanfile)
    if len(args.ray) != 1:
        raise FanError("contract takes a single ray label, e.g. --ray 4")
    result = contract_ray(fan, args.ray[0])
    _write_fan(result, args.output)
    _emit({"indexing": fanio.INDEXING_NOTE, "fan": fanio.fan_to_doc(result)})
    return EXIT_OK


def cmd_search(args) -> int:
    fan = fanio.load_fan(args.fanfile)
    result = projectivize(fan, max_depth=args.max_depth, flops_only=args.flops_only)
    _emit(fanio.search_result_to_doc(result))
    return EXIT_OK if result.found else EXIT_EXPECTATION_FAILED


def cmd_graph(args) -> int:
    fan = fanio.load_fan(args.fanfile)
    graph = surgery_graph(fan, max_depth=args.max_depth, flops_only=args.flops_only)
    if args.dot:
        sys.stdout.write(fanio.graph_to_dot(graph))
    else:
        _emit(fanio.graph_to_doc(graph))
    return EXIT_OK


def _enumeration_rays(args):
    if args.catalog is not None:
        fam = catalog.family(args.catalog)
        return catalog.build(args.catalog, _parse_params(fam, args.params)).rays
    if args.params is not None:
        raise FanError("enumerate takes --params only with --catalog, not with --rays")
    source = args.rays
    try:
        is_file = Path(source).is_file()
    except OSError:  # a long inline list is too long for a file name
        is_file = False
    if is_file:
        return fanio.load_fan(source).rays
    try:
        rays = tuple(_parse_vector(part) for part in source.split(";") if part)
    except FanError as exc:
        raise FanError(f"--rays is neither a file nor an inline ray list: {exc}") from None
    if not rays:
        raise FanError(f"--rays names no file and lists no rays: {source!r}")
    return rays


def cmd_enumerate(args) -> int:
    if args.expect_count is not None and args.expect_count < 0:
        raise FanError(f"--expect-count cannot be negative, got {args.expect_count}")
    report = enumerate_smooth_complete_fans(_enumeration_rays(args))
    _emit(fanio.enumeration_report_to_doc(report))
    if args.expect_count is not None and len(report.fans) != args.expect_count:
        print(
            f"expected {args.expect_count} fans, found {len(report.fans)}",
            file=sys.stderr,
        )
        return EXIT_EXPECTATION_FAILED
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.list:
        if (args.id, args.params, args.output) != (None, None, None):
            raise FanError("catalog --list takes no family id, --params or --output")
        _emit(
            {
                "families": [
                    {"id": fid, "params": list(catalog.family(fid).param_names)}
                    for fid in catalog.family_ids()
                ]
            }
        )
        return EXIT_OK
    if not args.id:
        raise FanError("catalog needs a family id or --list")
    fam = catalog.family(args.id)
    fan = catalog.build(args.id, _parse_params(fam, args.params))
    _write_fan(fan, args.output)
    _emit(fanio.fan_to_doc(fan))
    return EXIT_OK


class _StoreOnce(argparse.Action):
    """argparse's default store, except that an option given a second time is
    rejected instead of silently replacing its first value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "may be given only once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises `FanError` instead of exiting.

    `add_subparsers` builds every subparser with this class, so a missing,
    unknown, repeated or invalid argument anywhere reaches `main` as one
    message.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _StoreOnce)  # every argument without an action
        # argparse takes an argument that starts with "-" for an option unless
        # this private pattern (the same in CPython 3.6-3.13) matches it; it is
        # widened from numbers to integer lists like -1,-2,-2 or -1,0,0;0,1,0
        self._negative_number_matcher = re.compile(r"^-\d+([,;]-?\d+)*$|^-\d*\.\d+$")

    def error(self, message):
        raise FanError(f"{self.prog}: {message}")


# Built once per process: each parse_args call fills a fresh namespace from
# the parser's defaults, so no state carries over between calls.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricfans",
        description="Exact checks and surgeries for simplicial lattice fans in R^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a fan file and print its predicates")
    p.add_argument("fanfile")
    p.add_argument("--certificate", action="store_true", help="include certificates")
    p.add_argument("--nef", action="store_true", help="also decide nontrivial_nef_exists")
    p.add_argument("--expect-projective", type=_parse_bool, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("collections", help="print all primitive collections")
    p.add_argument("fanfile")
    p.set_defaults(func=cmd_collections)

    p = sub.add_parser("relations", help="print all primitive relations")
    p.add_argument("fanfile")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("walls", help="print all walls with their classification")
    p.add_argument("fanfile")
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("surgery", help="perform the wall exchange at --wall")
    p.add_argument("fanfile")
    p.add_argument("--wall", type=_parse_label_indices, required=True, metavar="I,J",
                   help="wall by 1-based ray labels, e.g. 1,7")
    p.add_argument("--output", help="also write the resulting fan file here")
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("subdivide", help="star subdivision along a new ray")
    p.add_argument("fanfile")
    p.add_argument("--ray", type=_parse_vector, required=True, metavar="X,Y,Z")
    p.add_argument("--output")
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("contract", help="contract a ray with a supported star shape")
    p.add_argument("fanfile")
    p.add_argument("--ray", type=_parse_label_indices, required=True, metavar="I",
                   help="ray by its 1-based label")
    p.add_argument("--output")
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("search", help="breadth-first search for a projective model")
    p.add_argument("fanfile")
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--flops-only", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("graph", help="emit the surgery graph to a fixed depth")
    p.add_argument("fanfile")
    p.add_argument("--max-depth", type=int, default=1)
    p.add_argument("--flops-only", action="store_true")
    p.add_argument("--dot", action="store_true", help="DOT digraph instead of JSON")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("enumerate", help="all smooth complete fans on a ray set")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--rays", help="fan file or inline rays like 1,0,0;0,1,0;...")
    source.add_argument("--catalog", help="take the rays of this catalog family")
    p.add_argument("--params", help="catalog parameters like a=2,b=7")
    p.add_argument("--expect-count", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("catalog", help="emit a catalog fan file")
    p.add_argument("id", nargs="?")
    p.add_argument("--params", help="family parameters like a=2,b=7")
    p.add_argument("--list", action="store_true", help="list family ids and arities")
    p.add_argument("--output")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FanError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except AssertionError as exc:  # only this: a caller's own timeout must pass through
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
