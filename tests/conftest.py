from hypothesis import settings

# CI selects this profile with --hypothesis-profile=ci, so a failing property
# example reproduces from run to run; local runs keep drawing fresh examples
settings.register_profile("ci", derandomize=True, print_blob=True,
                          deadline=None)
