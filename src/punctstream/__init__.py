"""punctstream: a miniature data-stream engine with punctuation-based
inter-operator feedback.

Feedback punctuations travel upstream on a control channel; operators
exploit them by guarding inputs/outputs, purging state, and propagating
rewritten patterns to their antecedents.
"""

from punctstream.core import (
    AttrType,
    Constraint,
    EmbeddedPunctuation,
    FeedbackPunctuation,
    Intent,
    Pattern,
    Schema,
    SchemaMismatchError,
    conjoin,
    matches,
    subsumes,
)
from punctstream.propagation import (
    AttributeMapping,
    Origin,
    derive_input_patterns,
    identity_mapping,
)

__all__ = [
    "AttrType",
    "AttributeMapping",
    "Constraint",
    "EmbeddedPunctuation",
    "FeedbackPunctuation",
    "Intent",
    "Origin",
    "Pattern",
    "Schema",
    "SchemaMismatchError",
    "conjoin",
    "derive_input_patterns",
    "identity_mapping",
    "matches",
    "subsumes",
]

__version__ = "0.1.0"
