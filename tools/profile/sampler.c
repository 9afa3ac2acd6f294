/* A sampling profiler for frame-pointer builds, loaded with LD_PRELOAD.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so tools/profile/sampler.c
 *   SAMPLER_OUT=/tmp/prof LD_PRELOAD=$PWD/sampler.so ./probe
 *   python3 tools/profile/symbolize.py ./probe /tmp/prof
 *
 * Every 100 µs of wall time a SIGPROF handler records one sample (a
 * CPU-time clock would fire only on scheduler ticks; the probe is a
 * single busy thread, so wall time is its CPU time):
 * `depth, rip, *(u64 *)rsp, return addresses...`, the return addresses
 * read by walking the rbp chain. The word at rsp is the return address
 * when the interrupted function built no frame (libc's memmove): the rbp
 * walk then starts at its caller's caller, and the symboliser charges the
 * sample to the caller through this word instead. At exit the samples go
 * to $SAMPLER_OUT.samples and a copy of the memory map to $SAMPLER_OUT.maps.
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 64
#define BUF_WORDS ((size_t)64 << 20)  /* 512 MB of address space, touched lazily */

static uint64_t *buf;
static size_t used;
static timer_t timer;

static void on_sample(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    const greg_t *r = ((ucontext_t *)context)->uc_mcontext.gregs;
    uint64_t rsp = r[REG_RSP], fp = r[REG_RBP];
    if (used + MAX_DEPTH + 3 > BUF_WORDS) return;
    size_t head = used;
    buf[head + 1] = r[REG_RIP];
    buf[head + 2] = *(const uint64_t *)rsp;
    size_t depth = 0;
    /* A frame pointer is trusted while it is aligned, above the stack
     * pointer, within 8 MB of it, and increasing. */
    while (depth < MAX_DEPTH && !(fp & 7) && fp > rsp && fp - rsp < (8u << 20)) {
        const uint64_t *frame = (const uint64_t *)fp;
        buf[head + 3 + depth++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    buf[head] = depth;
    used = head + 3 + depth;
}

static void copy_file(const char *from, const char *to) {
    int in = open(from, O_RDONLY), out = open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    char chunk[4096];
    ssize_t n;
    while (in >= 0 && out >= 0 && (n = read(in, chunk, sizeof chunk)) > 0) write(out, chunk, n);
    close(in), close(out);
}

static void dump(void) {
    timer_delete(timer);
    const char *base = getenv("SAMPLER_OUT") ? getenv("SAMPLER_OUT") : "sampler";
    char path[4096];
    snprintf(path, sizeof path, "%s.samples", base);
    int out = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    for (size_t done = 0; out >= 0 && done < used * 8;) {
        ssize_t n = write(out, (const char *)buf + done, used * 8 - done);
        if (n <= 0) break;
        done += n;
    }
    close(out);
    snprintf(path, sizeof path, "%s.maps", base);
    copy_file("/proc/self/maps", path);
}

__attribute__((constructor)) static void arm(void) {
    buf = mmap(NULL, BUF_WORDS * 8, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (buf == MAP_FAILED) return;
    struct sigaction sa = {.sa_sigaction = on_sample, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) return;
    struct itimerspec every = {.it_interval = {0, 100000}, .it_value = {0, 100000}};
    timer_settime(timer, 0, &every, NULL);
    atexit(dump);
}
