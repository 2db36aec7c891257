"""Tier-1 writes no bytecode, in process or in the interpreters it starts: a
``src/azumaya/__pycache__`` left behind makes a later benchmark run read
``cold_start_s`` from cached bytecode."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
