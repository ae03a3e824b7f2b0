"""ftop: computer algebra for finite topological spaces as preorders.

Decides lifting properties between maps of finite spaces, computes bounded
orthogonal classes over exhaustively enumerated universes, and ships named
verification suites for the classical characterizations those liftings encode.
"""
from .errors import CapacityError, FtopError, MapError, ParseError, SpaceError
from .space import (
    CMap,
    Space,
    closure,
    compose,
    coproduct,
    cylinder,
    identity,
    is_closed,
    is_isomorphism,
    is_open,
    lam,
    map_from_json,
    map_to_json,
    min_nbhd,
    product,
    product_map,
    quotient,
    space_from_json,
    space_to_json,
    sub,
)
from .registry import registry
from .parser import parse_map, parse_space, render
from .lifting import (
    BoundedClass,
    LiftCertificate,
    Square,
    factor_search,
    fill,
    is_retract_of,
    lifts,
    lifts_bool,
    monotone_maps,
    relative_orthogonal,
    squares,
)
from .universe import Universe, enumerate_maps, enumerate_spaces, get_universe
from .properties import PropertyRecord, classify
from .verify import SuiteReport, run_suite

__version__ = "0.1.0"

# every imported name that is not a module (such as ``errors``), and the version
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and type(value) is not type(errors))
__all__.append("__version__")
