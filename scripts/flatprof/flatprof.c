/* flatprof: a flat sampling profiler for boxes with no `perf`, as an
 * LD_PRELOAD library. ITIMER_PROF tops out at the kernel tick (~250 Hz
 * here), so a ticker thread signals the main thread with SIGPROF at PROF_HZ
 * (default 5000) instead; the handler records the call stack, and at exit
 * the samples are written to PROF_OUT (default flatprof.out) followed by
 * /proc/self/maps. Resolve with resolve.py. See README.md.
 *
 *   gcc -O2 -shared -fPIC -o flatprof.so flatprof.c -lpthread
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>

enum { DEPTH = 24, MAX_SAMPLES = 1 << 18 };

static void *frames[MAX_SAMPLES][DEPTH];
static int depth[MAX_SAMPLES];
static volatile int n_samples, done;
static pthread_t main_thread, ticker;

static void on_sigprof(int sig) {
    (void)sig;
    if (n_samples < MAX_SAMPLES) {
        depth[n_samples] = backtrace(frames[n_samples], DEPTH);
        n_samples++;
    }
}

static void *tick(void *arg) {
    long hz = getenv("PROF_HZ") ? atol(getenv("PROF_HZ")) : 5000;
    struct timespec period = {0, 1000000000L / (hz > 0 ? hz : 5000)};
    (void)arg;
    while (!done) {
        nanosleep(&period, NULL);
        pthread_kill(main_thread, SIGPROF);
    }
    return NULL;
}

static void dump(void) {
    const char *path = getenv("PROF_OUT") ? getenv("PROF_OUT") : "flatprof.out";
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    char line[512];
    done = 1;
    pthread_join(ticker, NULL);
    signal(SIGPROF, SIG_IGN);
    if (!out)
        return;
    /* Frames 0 and 1 are the handler and the kernel's signal trampoline. */
    for (int i = 0; i < n_samples; i++) {
        for (int j = 2; j < depth[i]; j++)
            fprintf(out, "%p ", frames[i][j]);
        fputc('\n', out);
    }
    fputs("--- maps\n", out);
    while (maps && fgets(line, sizeof line, maps))
        fputs(line, out);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_handler = on_sigprof, .sa_flags = SA_RESTART};
    void *warm[4];
    /* The first backtrace() loads libgcc's unwinder, which allocates: do it
     * here, not in the handler. */
    backtrace(warm, 4);
    main_thread = pthread_self();
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    pthread_create(&ticker, NULL, tick, NULL);
}
