"""Settings shared by the randomized test suite."""

# seed for every randomized property check; recorded here so runs reproduce
RANDOM_SEED = 271828
