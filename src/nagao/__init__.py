"""Rank heuristics for curve fibrations over Q(t) via averaged Frobenius traces.

The package exports only what loads a family; the rest is read from its
modules (accumulator, runner, fiber_trace, ...), so that importing one of
them loads only what it uses.
"""

from .family_model import parse_family

__version__ = "0.1.0"


def load_shipped_family(name: str):
    """The FamilySpec of one of the family files shipped with the package."""
    from importlib import resources

    text = resources.files(__name__).joinpath(f"families/{name}.fam").read_text()
    return parse_family(text)


def shipped_family_names() -> list[str]:
    from importlib import resources

    root = resources.files(__name__).joinpath("families")
    return sorted(f.name[:-4] for f in root.iterdir() if f.name.endswith(".fam"))
