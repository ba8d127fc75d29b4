import sys
from pathlib import Path

from hypothesis import settings

# make sibling helper modules (oracles.py) importable regardless of cwd
sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run and stay within seconds
settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("deterministic")
