"""Every resource limit of the exact enumerations, in one table, read where
it is checked; a cap error names the cap, its value and the size reached.
SMT_KIT_CAP, when set, is the cap of every coset interval."""

import os

CAPS = {
    "coset_interval": 10 ** 6,       # cosets of one weyl.coset_interval, the top included
    "cut_denominator": 12,           # denominator of an LS-path cut value (lspath.ChainData)
    "demazure_weights": 100000,      # weights after one letter of a Demazure character
    "monoid_points": 200000,         # box of quadlat.monoid_basis; criterion 2 reaches 18,564
    "orbit_weights": 200000,         # weights of one weyl.orbit_keys search or MinusculePoset walk
    "straighten_rewrites": 10 ** 6,  # rewrites of one smt.straighten
}


def coset_interval_cap() -> int:
    """SMT_KIT_CAP if set, else the table's coset interval entry."""
    env = os.environ.get("SMT_KIT_CAP")
    if env and not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ValueError(f"SMT_KIT_CAP={env!r}: expected a positive integer")
    return int(env) if env else CAPS["coset_interval"]
