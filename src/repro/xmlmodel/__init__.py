"""XML document model: trees, attribute values and DTDs (paper, Section 2)."""

from .dtd import DTD, parse_dtd
from .frozen import FrozenTree
from .tree import XMLNode, XMLTree
from .values import (Null, NullFactory, Value, fresh_null, is_constant,
                     is_null, value_key)

__all__ = [
    "XMLTree", "XMLNode", "FrozenTree",
    "Null", "NullFactory", "Value", "fresh_null", "is_constant", "is_null",
    "value_key",
    "DTD", "parse_dtd",
]
