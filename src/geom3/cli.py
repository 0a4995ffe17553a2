"""Command line front end with deterministic JSON/text output.

Exit codes: 0 on success, 1 on a domain error (a `ValueError`, reported
as a structured error object), 2 on an argument schema error, 3 on an
internal error (a bug: any other exception, an `ArithmeticError` such as
ZeroDivisionError or OverflowError too, or a NaN or infinity that reaches
the JSON encoder; reported the same way with its type).

Each handler imports the geometry it runs, so a call loads only the
modules of its own subcommand: start-up is most of a call's time.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .descriptors import canonical_json, check_output_size

if TYPE_CHECKING:
    from . import euclid, hyperbolic, nil, sol
    from .intmat import IntMat2


class SchemaError(ValueError):
    """Malformed command line value (exit code 2)."""


def _frac(text: str) -> Fraction:
    # an exponent of five or more digits: Fraction would build an integer of
    # that many digits (1e999999999 has a billion)
    if re.search(r"e[-+]?0*[1-9]\d{4}", text.replace("_", ""), re.I):
        raise SchemaError(f"exponent out of range: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational number: {text!r}") from exc


def _float(text: str) -> float:
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise SchemaError(f"not a finite number: {text!r}")
    return value


def _int_matrix(text: str) -> IntMat2:
    from .intmat import IntMat2
    parts = text.split(",")
    if len(parts) != 4:
        raise SchemaError("matrix must be 4 comma-separated integers "
                          "(row major)")
    try:
        vals = [int(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"non-integer matrix entry in {text!r}") from exc
    return IntMat2(*vals)


def _complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError("complex value must be re,im")
    return complex(_float(parts[0]), _float(parts[1]))


def _vec2(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise SchemaError("vector must be 2 comma-separated rationals")
    return (_frac(parts[0]), _frac(parts[1]))


def _nil_lattice(args) -> nil.NilLattice:
    from . import nil
    if args.preset:
        name = args.preset
        if name == "HZ":
            return nil.lattice_hz()
        if name.startswith("Gp:"):
            return nil.lattice_gp(_preset_int(name))
        if name.startswith("hex:"):
            return nil.lattice_hex(_preset_int(name))
        raise SchemaError(f"unknown nil preset {name!r}")
    if not (args.u and args.v):
        raise SchemaError("give --preset or both --u and --v")
    return nil.nil_lattice_make(_vec2(args.u), _vec2(args.v),
                                _frac(args.r), _frac(args.s), args.n)


def _preset_int(name: str) -> int:
    try:
        value = int(name.split(":", 1)[1])
    except ValueError as exc:
        raise SchemaError(f"bad preset parameter in {name!r}") from exc
    if value < 1:
        raise SchemaError("preset parameter must be >= 1")
    return value


# generator token -> name of the linear part in nil
_GEN_ROTATIONS = {
    "rot2": "ROT_PI", "-1": "ROT_PI", "rot4": "ROT_PI_2",
    "rot6": "ROT_PI_3", "reflect": "REFLECT",
}


def _nil_generators(text: str) -> list:
    """Tokens separated by ';': "x,y,z" translation, "rot4", "reflect",
    "-1", optionally "rot4@x,y,z" for a rotation composed with one."""
    from . import nil
    if text is None:
        raise SchemaError("--gens is required")
    gens = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        if "@" in token:
            head, tail = token.split("@", 1)
            if head not in _GEN_ROTATIONS:
                raise SchemaError(f"unknown rotation token {head!r}")
            rot = getattr(nil, _GEN_ROTATIONS[head])
            parts = tail.split(",")
            if len(parts) != 3:
                raise SchemaError("translation part must be x,y,z")
            trans = nil.HeisPoint.of(*(_frac(p) for p in parts))
            gens.append(nil.HeisIsometry(rot, trans))
        elif token in _GEN_ROTATIONS:
            gens.append(nil.HeisIsometry.point_symmetry(
                getattr(nil, _GEN_ROTATIONS[token])))
        else:
            parts = token.split(",")
            if len(parts) != 3:
                raise SchemaError(f"bad generator token {token!r}")
            gens.append(nil.HeisIsometry.translation(
                nil.HeisPoint.of(*(_frac(p) for p in parts))))
    if not gens:
        raise SchemaError("at least one generator required")
    return gens


# -- command handlers -----------------------------------------------------------

def _adjoined_point_group(args, lat):
    """The point group --adjoin names for a Nil lattice, or None."""
    if not args.adjoin:
        return None
    if args.adjoin != "full":
        raise SchemaError("--adjoin supports only 'full'")
    return lat.point_group


def _cmd_nil(args) -> dict:
    from . import nil
    if args.action == "iso":
        lat = _nil_lattice(args)
        extra = _adjoined_point_group(args, lat)
        return nil.nil_quotient_isometry(lat, extra=extra).to_json_dict()
    if args.action == "normalizer":
        return nil.nil_normalizer(_nil_lattice(args)).to_json_dict()
    if args.action == "center":
        lat = _nil_lattice(args)
        from .algebra import format_scalar
        return {"center_generator":
                format_scalar(nil.nil_center_intersection(lat))}
    if args.action == "point-group":
        if not (args.u and args.v):
            raise SchemaError("point-group needs --u and --v")
        pg = nil.planar_point_group(_vec2(args.u), _vec2(args.v))
        return {"tag": pg.tag, "order": pg.order}
    if args.action == "dichotomy":
        res = nil.nil_projection_dichotomy(_nil_generators(args.gens))
        return res.to_json_dict()
    if args.action == "volume":
        res = nil.nil_projection_dichotomy(_nil_generators(args.gens))
        return {"dichotomy": res.to_json_dict(),
                "volume": nil.nil_volume_verdict(res)}
    raise SchemaError(f"unknown nil action {args.action!r}")


def _sol_lattice(args) -> sol.SolLattice:
    from . import sol
    from .intmat import IntMat2
    if args.preset == "fib":
        return sol.sol_lattice_make(IntMat2(2, 1, 1, 1), args.power)
    if not args.matrix:
        raise SchemaError("give --matrix or --preset fib")
    return sol.sol_lattice_make(_int_matrix(args.matrix), args.power)


def _cmd_sol(args) -> dict:
    from . import sol
    if args.action == "iso":
        d = sol.sol_quotient_isometry(_sol_lattice(args))
        return {
            "identity_component": d.identity_component,
            "finite": {
                "abelian_invariants": d.finite_part["abelian_invariants"],
                "cyclic_extension": d.finite_part["cyclic_extension"],
                "order": d.finite_part["order"],
            },
        }
    if args.action == "normalizer":
        return sol.sol_normalizer_lattice(_sol_lattice(args)).to_json_dict()
    if args.action == "centralizer":
        return sol.sol_centralizer(_sol_lattice(args))
    if args.action == "qstructure":
        if not args.matrix:
            raise SchemaError("qstructure needs --matrix")
        q = sol.sol_q_structure(_int_matrix(args.matrix))
        from .algebra import format_scalar
        return {"d": q["d"],
                "eigenvalues": [format_scalar(q["eigenvalues"][0]),
                                format_scalar(q["eigenvalues"][1])],
                "galois_pair_check": q["galois_pair_check"]}
    if args.action == "fixed-line":
        g = sol.SolPoint(_float(args.x), _float(args.y), _float(args.t))
        p, q = sol.sol_fixed_line(g)
        return {"p": float(p), "q": float(q)}
    raise SchemaError(f"unknown sol action {args.action!r}")


def _mobius(text: str, option: str = "--matrix") -> hyperbolic.MobiusMap:
    from . import hyperbolic
    if text is None:
        raise SchemaError(f"{option} is required")
    vals = text.split(",")
    if len(vals) != 4:
        raise SchemaError("matrix must be 4 comma-separated numbers")
    return hyperbolic.MobiusMap(*(_frac(v) for v in vals))


def _cmd_hyp(args) -> dict:
    from . import hyperbolic
    if args.action == "classify":
        return hyperbolic.classify_isometry(_mobius(args.matrix)) \
            .to_json_dict()
    if args.action == "apply":
        out = hyperbolic.mobius_apply(_mobius(args.matrix),
                                      _complex(args.z))
        return {"image": [out.real, out.imag]}
    if args.action == "commute":
        commutes, same_fixed = hyperbolic.commute_test(
            _mobius(args.m1, "--m1"), _mobius(args.m2, "--m2"))
        return {"commute": commutes, "fixed_sets_equal": same_fixed}
    if args.action == "centralizer":
        return hyperbolic.centralizer_type(_mobius(args.matrix))
    if args.action == "verdict":
        return hyperbolic.hn_quotient_isometry_verdict(args.dim)
    raise SchemaError(f"unknown hyp action {args.action!r}")


# preset name -> its --gens text, so that presets are read as exactly as
# --gens; the twist turns about z by the angle of cosine 3/5, of infinite order
_S2R_PRESETS = {
    "twist": "3/5,-4/5,0,4/5,3/5,0,0,0,1@1",
    "product": "I@1",
    "rho": "I@1;-1,0,0,0,-1,0,0,0,1@0",
    "flip": "I@1;I@0@-1",
    "klein": "I@1;-1,0,0,0,-1,0,0,0,1@0;1,0,0,0,-1,0,0,0,-1@0",
}


def _s2r_generators(text: str) -> list:
    """Tokens separated by ';': "m11,...,m33@shift", or "I@shift" for the
    identity rotation, with "@-1" appended for a flip; exact entries."""
    from . import fibered
    gens = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = token.split("@")
        if len(parts) not in (2, 3) or parts[2:] not in ([], ["-1"]):
            raise SchemaError(f"bad generator token {token!r}")
        if parts[0] == "I":
            rot = fibered.S2R_ROT_ID
        else:
            entries = [_frac(e) for e in parts[0].split(",")]
            if len(entries) != 9:
                raise SchemaError("rotation part must be 9 comma-separated "
                                  "rationals (row major) or I")
            rot = tuple(tuple(entries[i:i + 3]) for i in (0, 3, 6))
        gens.append(fibered.S2RIsometry(rot, _frac(parts[1]),
                                        flip=-1 if parts[2:] else 1))
    if not gens:
        raise SchemaError("at least one generator required")
    return gens


def _cmd_fiber(args) -> dict:
    from . import fibered
    if args.action == "frame":
        frame = fibered.frame_at_identity()
        return {"frame": [v.to_json_dict() for v in frame]}
    if args.action == "embed":
        z, w = fibered.unit_tangent_embed(_mobius(args.matrix))
        return {"z": [z.real, z.imag], "w": [w.real, w.imag]}
    if args.action == "norm":
        t = fibered.TangentVector(_complex(args.z), _complex(args.w),
                                  _complex(args.X), _complex(args.Z))
        return {"sasaki_norm": fibered.sasaki_norm(t)}
    if args.action == "decompose":
        t = fibered.TangentVector(_complex(args.z), _complex(args.w),
                                  _complex(args.X), _complex(args.Z))
        h, v = fibered.hv_decompose(t)
        return {"horizontal": h.to_json_dict(), "vertical": v.to_json_dict()}
    if args.action == "christoffel":
        value = fibered.christoffel_h2(_complex(args.p), args.i, args.j,
                                       args.k)
        return {"value": value}
    if args.action == "s2r":
        text = args.gens
        if text is None:
            text = _S2R_PRESETS.get(args.preset or "twist")
            if text is None:
                raise SchemaError(f"unknown s2r preset {args.preset!r}")
        elif args.preset is not None:
            raise SchemaError("give --preset or --gens, not both")
        dec = fibered.s2r_decompose(_s2r_generators(text))
        out = dec.to_json_dict()
        if dec.lam is not None:
            out["identity_component"] = \
                fibered.s2r_quotient_identity_component(dec)
        return out
    if args.action == "psl2-iso":
        return fibered.psl2_quotient_isometry(args.geometry).to_json_dict()
    raise SchemaError(f"unknown fiber action {args.action!r}")


def _crystal(args) -> euclid.CrystalGroup:
    from . import euclid
    if not args.preset:
        raise SchemaError("euclid commands take --preset "
                          "(Z2, Z2xD4, Z3, Z3xD4xy, screw, slab, centered)")
    try:
        return euclid.preset_crystal(args.preset)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _cmd_euclid(args) -> dict:
    from . import euclid
    g = _crystal(args)
    if args.action == "rank":
        return {"translation_rank": euclid.translation_rank(g)}
    if args.action == "volume":
        return {"volume": euclid.euclid_volume_verdict(g)}
    if args.action == "betti":
        betti, torus = euclid.betti_identity_component(g)
        return {"betti": betti, "identity_component": torus,
                "abelianization_rank": euclid.coinvariant_rank(g)}
    if args.action == "iso":
        return euclid.euclid_quotient_isometry(g).to_json_dict()
    raise SchemaError(f"unknown euclid action {args.action!r}")


def _cmd_lookup(args) -> dict:
    from . import euclid
    rows = euclid.spherical_components_lookup(args.family)
    return {"family": args.family, "rows": rows,
            "version": euclid.lookup_table_version()}


def _zimmer_quotient(args):
    from . import zimmer
    geometry = args.geometry
    if args.adjoin and geometry != "nil":
        raise SchemaError("--adjoin applies only to --geometry nil")
    if geometry == "nil":
        lat = _nil_lattice(args)
        extra = _adjoined_point_group(args, lat)
        return zimmer.quotient_isometry_summary("nil", lat, extra=extra)
    if geometry == "sol":
        return zimmer.quotient_isometry_summary("sol", _sol_lattice(args))
    if geometry == "euclid":
        return zimmer.quotient_isometry_summary("euclid", _crystal(args))
    if geometry in ("s3", "s2xr"):
        if not args.component:
            raise SchemaError(f"{geometry} needs --component "
                              "(identity component tag)")
        try:
            return zimmer.quotient_isometry_summary(geometry, args.component)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if geometry in ("h3", "h2xr", "sl2r"):
        return zimmer.quotient_isometry_summary(geometry)
    raise SchemaError(f"unknown geometry {geometry!r}")


def _cmd_zimmer(args) -> dict:
    from . import zimmer
    if args.action == "verdict":
        if args.uniform and args.nonuniform:
            raise SchemaError("choose one of --uniform/--nonuniform")
        if not (args.uniform or args.nonuniform):
            raise SchemaError("choose --uniform or --nonuniform")
        if not args.factors:
            raise SchemaError("--factors required")
        try:
            spec = zimmer.parse_spec(args.factors, uniform=args.uniform)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        quotient = _zimmer_quotient(args)
        verdict = zimmer.zimmer_verdict(quotient, spec)
        return {"spec": str(spec),
                "quotient_identity_component": quotient.identity_component,
                "verdict": verdict.to_json_dict()}
    if args.action == "summary":
        return _zimmer_quotient(args).to_json_dict()
    if args.action == "aspherical":
        verdict = zimmer.aspherical_check(args.sl_degree, args.manifold_dim)
        return {"verdict": verdict.to_json_dict() if verdict else None}
    if args.action == "maxdim":
        return {"n": args.space_dim,
                "bound": zimmer.max_isometry_dim(args.space_dim)}
    if args.action == "galois-demo":
        res = zimmer.galois_twist_pair(zimmer.galois_twist_example())
        from .algebra import format_scalar
        return {
            "matrix": [[format_scalar(v) for v in row]
                       for row in res["matrix"]],
            "conjugate": [[format_scalar(v) for v in row]
                          for row in res["conjugate"]],
            "preserves_form": res["preserves_form"],
            "conjugate_preserves_twisted_form":
                res["conjugate_preserves_twisted_form"],
        }
    raise SchemaError(f"unknown zimmer action {args.action!r}")


def _cmd_selfcheck(args) -> dict:
    from . import selfcheck
    report = selfcheck.run_selfcheck()
    passed = sum(1 for r in report if r["ok"])
    return {"items": report, "passed": passed, "total": len(report),
            "ok": passed == len(report)}


# -- wiring ----------------------------------------------------------------------

def _add_lattice_opts(p):
    p.add_argument("--preset")
    p.add_argument("--u")
    p.add_argument("--v")
    p.add_argument("--r", default="0")
    p.add_argument("--s", default="0")
    p.add_argument("--n", type=int, default=1)


def _matrix_help(flag: str) -> str:
    # argparse takes a value that starts with "-" for an option
    return f"a,b,c,d by rows; a negative first entry needs {flag}=-1,0,0,-1"


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="geom3",
        description="exact isometry groups of finite-volume quotients of "
                    "the eight 3-dimensional geometries")
    top.add_argument("--json", action="store_true",
                     help="emit canonical JSON instead of text")
    sub = top.add_subparsers(dest="command", required=True)

    def sub_add(name, **kw):
        p = sub.add_parser(name, **kw)
        # SUPPRESS: unless given here, the top-level value stands
        p.add_argument("--json", action="store_true",
                       default=argparse.SUPPRESS,
                       help="emit canonical JSON instead of text")
        return p

    p_nil = sub_add("nil", help="Heisenberg geometry")
    p_nil.add_argument("action", choices=["iso", "normalizer", "center",
                                          "point-group", "dichotomy",
                                          "volume"])
    _add_lattice_opts(p_nil)
    p_nil.add_argument("--adjoin")
    p_nil.add_argument("--gens")

    p_sol = sub_add("sol", help="Sol geometry")
    p_sol.add_argument("action", choices=["iso", "normalizer", "centralizer",
                                          "qstructure", "fixed-line"])
    p_sol.add_argument("--matrix", help=_matrix_help("--matrix"))
    p_sol.add_argument("--power", type=int, default=1)
    p_sol.add_argument("--preset")
    p_sol.add_argument("--x", default="0")
    p_sol.add_argument("--y", default="0")
    p_sol.add_argument("--t", default="0")

    p_hyp = sub_add("hyp", help="hyperbolic plane isometries")
    p_hyp.add_argument("action", choices=["classify", "apply", "commute",
                                          "centralizer", "verdict"])
    for flag in ("--matrix", "--m1", "--m2"):
        p_hyp.add_argument(flag, help=_matrix_help(flag))
    p_hyp.add_argument("--z", default="0,1")
    p_hyp.add_argument("--dim", type=int, default=3)

    p_fib = sub_add("fiber", help="fibered geometries")
    p_fib.add_argument("action", choices=["frame", "embed", "norm",
                                          "decompose", "christoffel", "s2r",
                                          "psl2-iso"])
    p_fib.add_argument("--matrix", help=_matrix_help("--matrix"))
    p_fib.add_argument("--z", default="0,1")
    p_fib.add_argument("--w", default="1,0")
    p_fib.add_argument("--X", default="0,0")
    p_fib.add_argument("--Z", default="0,0")
    p_fib.add_argument("--p", default="0,1")
    p_fib.add_argument("--i", type=int, default=1)
    p_fib.add_argument("--j", type=int, default=1)
    p_fib.add_argument("--k", type=int, default=1)
    p_fib.add_argument("--preset")
    p_fib.add_argument("--gens")
    p_fib.add_argument("--geometry", default="sl2r")

    p_euc = sub_add("euclid", help="Euclidean crystallographic input")
    p_euc.add_argument("action", choices=["rank", "volume", "betti", "iso"])
    p_euc.add_argument("--preset")

    p_look = sub_add("lookup", help="spherical / S2xR tables")
    p_look.add_argument("--family", default="all")

    p_zim = sub_add("zimmer", help="higher-rank lattice dichotomy")
    p_zim.add_argument("action", nargs="?", default="verdict",
                       choices=["verdict", "summary", "aspherical",
                                "maxdim", "galois-demo"])
    p_zim.add_argument("--geometry", default="nil")
    p_zim.add_argument("--factors")
    p_zim.add_argument("--uniform", action="store_true")
    p_zim.add_argument("--nonuniform", action="store_true")
    p_zim.add_argument("--component")
    p_zim.add_argument("--adjoin")
    p_zim.add_argument("--sl-degree", type=int, default=3,
                       help="degree r of the integral lattice (aspherical)")
    p_zim.add_argument("--manifold-dim", type=int, default=2,
                       help="dimension n of the aspherical manifold")
    p_zim.add_argument("--space-dim", type=int, default=3,
                       help="dimension for the isometry bound (maxdim)")
    _add_lattice_opts(p_zim)
    # and Sol's --matrix and --power; --preset is shared
    p_zim.add_argument("--matrix", help=_matrix_help("--matrix"))
    p_zim.add_argument("--power", type=int, default=1)

    sub_add("selfcheck", help="run the embedded golden suite")
    return top


_HANDLERS = {
    "nil": _cmd_nil,
    "sol": _cmd_sol,
    "hyp": _cmd_hyp,
    "fiber": _cmd_fiber,
    "euclid": _cmd_euclid,
    "lookup": _cmd_lookup,
    "zimmer": _cmd_zimmer,
    "selfcheck": _cmd_selfcheck,
}


def _render_text(payload: dict, out) -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            out.write(f"{key}: {json.dumps(value, sort_keys=True)}\n")
        else:
            out.write(f"{key}: {value}\n")


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        try:
            payload = _HANDLERS[args.command](args)
            check_output_size(payload)
        except SchemaError as exc:
            _emit_error(out, "schema", str(exc), args.json)
            return 2
        except ValueError as exc:
            _emit_error(out, type(exc).__name__, str(exc), args.json)
            return 1
        rendered = canonical_json(payload)   # a NaN or inf is a bug
    except Exception as exc:
        _emit_error(out, "internal", f"{type(exc).__name__}: {exc}",
                    args.json)
        return 3
    if args.json:
        out.write(rendered + "\n")
    elif args.command == "selfcheck":
        for item in payload["items"]:
            mark = "PASS" if item["ok"] else "FAIL"
            suffix = f" ({item['detail']})" if item["detail"] else ""
            out.write(f"{mark} {item['id']}{suffix}\n")
        out.write(f"{payload['passed']}/{payload['total']} passed\n")
    else:
        _render_text(payload, out)
    return 1 if args.command == "selfcheck" and not payload["ok"] else 0


def _emit_error(out, kind: str, detail: str, as_json: bool) -> None:
    if as_json:
        out.write(canonical_json({"error": {"kind": kind,
                                            "detail": detail}}) + "\n")
    else:
        out.write(f"error[{kind}]: {detail}\n")


if __name__ == "__main__":
    sys.exit(main())
