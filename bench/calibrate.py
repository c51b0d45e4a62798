"""A fixed amount of pure-Python work that measures how fast the host is now.

The benchmark runs this script as its own process before and after the
pipeline processes and scales each pipeline time by the reference time of
this script over its measured time, which removes most of the host's speed
swings. The work resembles the pipeline's: n-gram tuples in a set and
prefix counts in a small dictionary (cache-resident, like dedup), then
substring counts in a dictionary larger than the CPU caches (memory-bound,
like vocab's candidate counting). It uses no part of bertpipe, so a change
to bertpipe never moves it. Changing this file changes every scaled time;
do not.
"""

import hashlib
import random
from collections import Counter


def main() -> str:
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghijäö") for _ in range(rng.randint(2, 9))) for _ in range(4000)]
    lines = [" ".join(rng.choice(words) for _ in range(16)) for _ in range(1500)]
    seen = set()
    prefixes = Counter()
    for line in lines:
        tokens = line.split()
        seen.update(tuple(tokens[i : i + 9]) for i in range(len(tokens) - 8))
        for token in tokens:
            for j in range(1, len(token) + 1):
                prefixes[token[:j]] += 1

    letters = "abcdefghijklmnopqrstuvwxyzäö"
    long_words = ["".join(rng.choice(letters) for _ in range(rng.randint(6, 14))) for _ in range(4000)]
    substrings = Counter()
    for word in long_words:
        for i in range(len(word)):
            for j in range(i + 1, min(len(word), i + 8) + 1):
                substrings[word[i:j]] += 1

    digest = hashlib.sha256(repr(sorted(prefixes.items())).encode())
    digest.update(repr(sorted(substrings.items())).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    main()
