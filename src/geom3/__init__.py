"""geom3: exact computation with discrete isometry groups of the eight
3-dimensional geometries."""

from importlib import import_module

__version__ = "0.1.0"

# Re-exports, each imported from its module on first use (PEP 562), so
# that `import geom3.cli` loads no module its subcommand does not run.
_EXPORTS = {
    "QuadRat": "algebra", "galois_conjugate": "algebra",
    "IntMat2": "intmat", "int_mat_pow": "intmat",
    "IsoDescriptor": "descriptors", "Verdict": "descriptors",
}

__all__ = [
    "QuadRat", "galois_conjugate",
    "IntMat2", "int_mat_pow",
    "IsoDescriptor", "Verdict",
    "__version__",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
