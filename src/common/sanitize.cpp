/**
 * @file
 * Runtime defaults for sanitized builds (MINJIE_SANITIZE=...), tuned
 * for the fork()-based processes (LightSSS snapshots, pool workers):
 *
 *  - ASan leak checking runs from atexit handlers; forked children
 *    (snapshots, pool workers) leave through _exit(), so leaks are
 *    reported exactly once, by the parent. abort_on_error makes a
 *    report kill the test instead of just logging.
 *  - UBSan prints the stack for every report and halts: a UB report
 *    in tier-1 is a failure, not a log line.
 *
 * The *_default_options hooks are weak symbols the sanitizer runtimes
 * look up at startup; defining them beats wiring ASAN_OPTIONS through
 * every ctest/CI invocation, and keeps the policy next to the code it
 * protects. The file compiles to nothing in unsanitized builds.
 */

#if defined(__has_feature)
#define MJ_HAS_FEATURE(x) __has_feature(x)
#else
#define MJ_HAS_FEATURE(x) 0
#endif

#if defined(__SANITIZE_ADDRESS__) || MJ_HAS_FEATURE(address_sanitizer)
extern "C" const char *
__asan_default_options()
{
    return "abort_on_error=1:"
           "detect_leaks=1:"
           "check_initialization_order=1:"
           "strict_init_order=1";
}
#endif

// UBSan defines no feature macro; hook it whenever any sanitizer
// build is plausible. An unused weak hook is harmless.
extern "C" const char *
__ubsan_default_options()
{
    return "print_stacktrace=1";
}
