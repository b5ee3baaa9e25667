import os
import sys
from pathlib import Path

from hypothesis import settings

# Allow running the suite straight from a checkout, installed or not.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# CI runs every hypothesis test on a fixed sequence of examples, so a
# statistical test that fails there fails the same way locally with CI=1.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
