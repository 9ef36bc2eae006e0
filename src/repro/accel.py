"""The build ``python3 -m wallbench`` records in its fingerprint.

Every module runs interpreted; there is no compiled build.
"""


def describe() -> str:
    return "pure-Python"
